// Theorem 1.1 half of a workload: direct and served estimates, and the
// traced run's layer-by-layer mirror of one estimate.
#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "bench.h"
#include "congest/primitives.h"
#include "core/theorem11.h"
#include "graph/algorithms.h"
#include "paths/distributed.h"
#include "paths/reference.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "util/mathx.h"
#include "util/rng.h"

namespace perfbench {

using namespace qc;

std::string t11_gate(Dist estimate_scaled, std::uint64_t total_scale,
                     std::uint32_t eps_inv, Dist exact,
                     bool distributed_matches, Dist served_value,
                     std::uint64_t served_scale) {
  using Wide = unsigned __int128;
  const Wide est = estimate_scaled;
  const Wide lo = Wide{exact} * total_scale;
  // estimate/scale ≤ (1 + 1/e)²·exact  ⇔  est·e² ≤ (e + 1)²·exact·scale.
  const Wide e = eps_inv;
  if (est < lo) return "estimate below the exact value";
  if (est * e * e > (e + 1) * (e + 1) * lo) {
    return "estimate above (1+eps)^2 times the exact value";
  }
  if (!distributed_matches) return "distributed validation failed";
  if (served_value != estimate_scaled || served_scale != total_scale) {
    return "served value/scale differs from the direct estimate";
  }
  return "";
}

std::string mirror_gate(const MirrorRounds& mirror,
                        const MirrorRounds& measured) {
  if (mirror.t0 != measured.t0) return "mirror t0_rounds differs";
  if (mirror.setup != measured.setup) return "mirror t_setup_rounds differs";
  if (mirror.eval != measured.eval) return "mirror t_eval_rounds differs";
  return "";
}

namespace {

core::Theorem11Options options_for(const T11Config& cfg, std::uint64_t seed) {
  core::Theorem11Options opt;
  opt.seed = seed;
  opt.eps_inv = cfg.eps_inv;
  opt.r_override = cfg.r_override;
  opt.oracle_mode = core::OracleMode::kLazyPooled;
  opt.oracle_workers = host_threads();
  opt.validate_distributed = true;
  return opt;
}

core::Theorem11Result estimate(const WeightedGraph& g, bool radius,
                               const core::Theorem11Options& opt) {
  return radius ? core::quantum_weighted_radius(g, opt)
                : core::quantum_weighted_diameter(g, opt);
}

service::Query served_query(const std::string& graph, bool radius,
                            std::uint64_t seed) {
  service::Query q;
  q.graph = graph;
  q.type = radius ? "t11_radius" : "t11_diameter";
  q.seed = seed;
  return q;
}

/// Per-metric samples of the traced pass, reduced to medians at the end.
class Samples {
 public:
  void add(const std::string& name, double v) { data_[name].push_back(v); }
  void report(Report& r, const std::string& name, const std::string& unit,
              double scale = 1.0) const {
    const auto it = data_.find(name);
    const std::vector<double> none;
    const auto& v = it == data_.end() ? none : it->second;
    r.set(name, median(v) * scale, unit, v.size());
  }
  double med(const std::string& name) const {
    const auto it = data_.find(name);
    return it == data_.end() ? 0.0 : median(it->second);
  }
  double last(const std::string& name) const { return data_.at(name).back(); }
  std::size_t count(const std::string& name) const {
    const auto it = data_.find(name);
    return it == data_.end() ? 0 : it->second.size();
  }

 private:
  std::map<std::string, std::vector<double>> data_;
};

/// What an estimate's sampling stage produces for one seed, rebuilt from
/// public calls: derive_params, Rng(seed), n × sample_indices, then the
/// two fork()s (search, then Algorithm 3's random delays).
struct SampledSets {
  paths::Params params;
  std::vector<std::vector<NodeId>> sets;
  std::vector<NodeId> member_union;
  Rng delays;
};

SampledSets sample_sets(const WeightedGraph& g,
                        const core::Theorem11Options& opt) {
  SampledSets s;
  s.params = core::derive_params(g, opt);
  const NodeId n = g.node_count();
  const double p = static_cast<double>(s.params.r) / n;
  Rng rng(opt.seed);
  s.sets.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    s.sets[i] = rng.sample_indices(n, p);
    s.member_union.insert(s.member_union.end(), s.sets[i].begin(),
                          s.sets[i].end());
  }
  (void)rng.fork();  // the outer search's stream
  s.delays = rng.fork();
  return s;
}

/// An estimate's oracle stage for one seed, split by layer: first-level
/// rows for the union of the sets, then every non-empty set evaluated
/// serially and on the pool. Both evaluations must agree.
void mirror_oracle(const SampledSets& s,
                   runtime::ThreadPool& pool, paths::ToolkitCache& cache,
                   Tracer& tracer, Samples& out, Report& report) {
  std::vector<std::size_t> work;
  for (std::size_t i = 0; i < s.sets.size(); ++i) {
    if (!s.sets[i].empty()) work.push_back(i);
  }
  {
    Tracer::Span span(tracer, "paths.toolkit_rows");
    cache.ensure_rows(s.member_union, &pool);
    out.add("paths.toolkit_rows_s", span.elapsed());
  }
  std::vector<std::vector<Dist>> serial(s.sets.size());
  double serial_s = 0;
  {
    Tracer::Span span(tracer, "paths.evaluate_set");
    paths::SetEvalWorkspace ws;
    for (const std::size_t i : work) {
      serial[i] = cache.evaluate_set(s.sets[i], ws).member_ecc;
    }
    serial_s = span.elapsed();
  }
  std::vector<std::vector<Dist>> pooled(s.sets.size());
  double pooled_s = 0;
  {
    Tracer::Span span(tracer, "paths.evaluate_set_pooled");
    const std::size_t chunks = std::min<std::size_t>(
        work.size(), std::size_t{pool.worker_count()} * 4);
    runtime::parallel_for(pool, chunks, [&](std::size_t c) {
      paths::SetEvalWorkspace ws;
      for (std::size_t w = work.size() * c / chunks;
           w < work.size() * (c + 1) / chunks; ++w) {
        pooled[work[w]] = cache.evaluate_set(s.sets[work[w]], ws).member_ecc;
      }
    });
    pooled_s = span.elapsed();
  }
  report.gate(serial == pooled, "pooled evaluate_set differs from serial");
  out.add("paths.evaluate_set_s", serial_s);
  out.add("paths.evaluate_set_pooled_s", pooled_s);
  out.add("runtime.pool_speedup", pooled_s > 0 ? serial_s / pooled_s : 0.0);
}

/// Sums the simulator runs of one mirrored estimate.
struct SimTotals {
  std::uint64_t rounds = 0, messages = 0;
  double seconds = 0;
  void add(const congest::RunStats& st, double secs) {
    rounds += st.rounds;
    messages += st.messages;
    seconds += secs;
  }
};

/// An estimate's preamble and measure phase, call by
/// call: BFS tree + depth aggregate, the chosen set's skeleton, the set
/// flood, Algorithms 3 and 4 (Initialization), the sync aggregate and
/// Algorithm 5 from the witness (Setup), the local combine and the
/// convergecast (Evaluation). Returns the measured rounds.
MirrorRounds mirror_measure(const WeightedGraph& g, const SampledSets& s,
                            const core::Theorem11Result& res,
                            paths::ToolkitCache& cache, Tracer& tracer,
                            Samples& out, Report& report, double& measure_s) {
  const NodeId n = g.node_count();
  const std::uint32_t id_bits = bits_for(n);
  SimTotals sim;
  measure_s = 0;

  {
    Tracer::Span span(tracer, "congest.preamble");
    const auto bfs = congest::build_bfs_tree(g, 0);
    std::vector<std::uint64_t> depths(n);
    for (NodeId v = 0; v < n; ++v) depths[v] = bfs.nodes[v].depth;
    const auto agg = congest::global_aggregate(
        g, 0, depths, congest::AggregateOp::kMax, id_bits);
    const double secs = span.elapsed();
    sim.add(bfs.stats, 0);
    sim.add(agg.stats, secs);
    out.add("congest.preamble_s", secs);
    report.gate(std::max<std::uint64_t>(1, agg.value) == res.d_hat,
                "mirror preamble d_hat differs from the estimate's");
  }

  const auto& chosen = s.sets[res.chosen_set];
  paths::Skeleton sk;
  {
    Tracer::Span span(tracer, "paths.skeleton");
    sk = cache.skeleton(chosen);
    out.add("paths.skeleton_s", span.elapsed());
    measure_s += span.elapsed();
  }
  const auto wit = std::find(sk.members.begin(), sk.members.end(),
                             res.witness);
  if (wit == sk.members.end()) {
    report.fail("witness is not a member of the chosen set");
    return {};
  }
  const auto s_idx = static_cast<std::uint32_t>(wit - sk.members.begin());

  MirrorRounds rounds;
  double aggregate_s = 0;
  {
    Tracer::Span span(tracer, "congest.flood");
    std::vector<std::vector<congest::FloodItem>> items(n);
    for (const NodeId v : chosen) {
      congest::FloodItem it;
      it.push(v, id_bits);
      items[v].push_back(std::move(it));
    }
    const auto flood = congest::flood_items(
        g, std::move(items), {}, congest::FloodCollect::kStatsOnly);
    sim.add(flood.stats, span.elapsed());
    rounds.t0 += flood.stats.rounds;
    out.add("congest.flood_s", span.elapsed());
    measure_s += span.elapsed();
  }
  const paths::HopScale hs{s.params.ell, s.params.eps_inv, g.max_weight()};
  Rng delays = s.delays;
  paths::MultiSourceResult ms;
  {
    Tracer::Span span(tracer, "paths.alg3");
    ms = paths::distributed_multi_source_bhs(
        g, paths::RunRequest{}.with_sources(chosen).with_scale(hs).with_rng(
               delays));
    sim.add(ms.stats, span.elapsed());
    rounds.t0 += ms.stats.rounds;
    out.add("paths.alg3_s", span.elapsed());
    out.add("paths.alg3_rounds", static_cast<double>(ms.stats.rounds));
    out.add("paths.alg3_messages", static_cast<double>(ms.stats.messages));
    out.add("paths.alg3_attempts", ms.attempts);
    measure_s += span.elapsed();
  }
  paths::OverlayEmbedding emb;
  {
    Tracer::Span span(tracer, "paths.alg4");
    emb = paths::distributed_embed_overlay(
        g, ms.approx,
        paths::RunRequest{}.with_sources(chosen).with_params(s.params));
    sim.add(emb.stats, span.elapsed());
    rounds.t0 += emb.stats.rounds;
    out.add("paths.alg4_s", span.elapsed());
    out.add("paths.alg4_rounds", static_cast<double>(emb.stats.rounds));
    measure_s += span.elapsed();
  }
  {
    Tracer::Span span(tracer, "congest.aggregate");
    const std::vector<std::uint64_t> zeros(n, 0);
    const auto sync = congest::global_aggregate(
        g, 0, zeros, congest::AggregateOp::kMax, 1);
    sim.add(sync.stats, span.elapsed());
    rounds.setup += sync.stats.rounds;
    aggregate_s += span.elapsed();
  }
  paths::OverlaySsspResult alg5;
  {
    Tracer::Span span(tracer, "paths.alg5");
    alg5 = paths::distributed_overlay_sssp(
        g, emb,
        paths::RunRequest{}.with_params(s.params).with_overlay_source(s_idx));
    sim.add(alg5.stats, span.elapsed());
    rounds.setup += alg5.stats.rounds;
    out.add("paths.alg5_s", span.elapsed());
    out.add("paths.alg5_rounds", static_cast<double>(alg5.stats.rounds));
    out.add("paths.alg5_messages", static_cast<double>(alg5.stats.messages));
    measure_s += span.elapsed();
  }
  std::vector<std::uint64_t> local(n, 0);
  {
    Tracer::Span span(tracer, "core.combine");
    const std::uint64_t sigma2 = sk.overlay_scale.sigma();
    for (NodeId v = 0; v < n; ++v) {
      Dist best = kInfDist;
      for (std::uint32_t u = 0; u < sk.size(); ++u) {
        const Dist leg = ms.approx[u][v];
        best = std::min(best, dist_add(alg5.approx[u],
                                       leg >= kInfDist ? kInfDist
                                                       : leg * sigma2));
      }
      local[v] = best >= kInfDist ? 0 : best;
    }
    measure_s += span.elapsed();
  }
  {
    Tracer::Span span(tracer, "congest.aggregate");
    const std::uint32_t val_bits = std::min<std::uint32_t>(
        63, bits_for(*std::max_element(local.begin(), local.end()) + 2));
    const auto eval = congest::global_aggregate(
        g, 0, local, congest::AggregateOp::kMax, val_bits);
    sim.add(eval.stats, span.elapsed());
    rounds.eval = eval.stats.rounds;
    aggregate_s += span.elapsed();
  }
  measure_s += aggregate_s;
  out.add("congest.aggregate_s", aggregate_s);
  out.add("congest.sim_rounds", static_cast<double>(sim.rounds));
  out.add("congest.messages_per_round",
          sim.rounds ? static_cast<double>(sim.messages) / sim.rounds : 0.0);
  out.add("congest.host_ns_per_round",
          sim.rounds ? sim.seconds * 1e9 / sim.rounds : 0.0);
  return rounds;
}

}  // namespace

std::vector<double> run_t11(const T11Config& cfg,
                            service::QueryEngine& engine,
                            const std::string& graph, Tracer* tracer,
                            Report& report) {
  const WeightedGraph& g = engine.find_graph(graph)->graph();
  // References, outside every timed region.
  const Dist exact[2] = {weighted_diameter(g), weighted_radius(g)};
  std::vector<std::uint64_t> seeds;
  for (std::size_t k = 1; k <= cfg.seed_count; ++k) seeds.push_back(k);

  const auto check = [&](const core::Theorem11Result& res, bool radius,
                         const service::QueryResult& served) {
    std::string why = served.ok ? "" : "served estimate failed: " + served.error;
    if (why.empty()) {
      why = t11_gate(res.estimate_scaled, res.total_scale,
                     res.params.eps_inv, exact[radius],
                     res.distributed_value_matches, served.value,
                     served.scale);
    }
    report.gate(why.empty(), std::string(radius ? "radius" : "diameter") +
                                 ": " + why);
  };

  if (tracer == nullptr) {
    // One time sample per seed: the mean of its diameter and radius
    // estimate. A diameter estimate runs about 40% longer than a radius
    // one, so a median over single estimates would fall in the gap
    // between the two groups and jump with noise.
    std::vector<double> direct_s, served_s, rounds;
    for (const std::uint64_t s : seeds) {
      double direct_mean = 0, served_mean = 0;
      for (const bool radius : {false, true}) {
        auto t = Clock::now();
        const auto res = estimate(g, radius, options_for(cfg, s));
        const double direct_one = seconds_since(t);
        t = Clock::now();
        const auto served = engine.query(served_query(graph, radius, s));
        const double served_one = seconds_since(t);
        direct_mean += direct_one / 2;
        served_mean += served_one / 2;
        check(res, radius, served);
        rounds.push_back(static_cast<double>(res.rounds));
        std::fprintf(stderr,
                     "perfbench: t11 %s seed=%llu d_hat=%llu |S*|=%zu "
                     "outer_calls=%llu rounds=%llu direct=%.3fs "
                     "served=%.3fs\n",
                     radius ? "radius" : "diameter",
                     static_cast<unsigned long long>(s),
                     static_cast<unsigned long long>(res.d_hat),
                     res.chosen_set_size,
                     static_cast<unsigned long long>(res.outer_calls),
                     static_cast<unsigned long long>(res.rounds),
                     direct_one, served_one);
      }
      direct_s.push_back(direct_mean);
      served_s.push_back(served_mean);
    }
    report.set("t11_direct_s", median(direct_s), "s", direct_s.size());
    report.set("t11_served_s", median(served_s), "s", served_s.size());
    report.set("charged_rounds", median(rounds), "rounds", rounds.size());
    return served_s;
  }

  Tracer& tr = *tracer;
  Samples out;
  runtime::ThreadPool pool(host_threads());
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    tr.set_trace_id(k + 1);
    const core::Theorem11Options opt = options_for(cfg, seeds[k]);
    const SampledSets sets = sample_sets(g, opt);
    paths::ToolkitCache cache(g, sets.params);
    {
      Tracer::Span span(tr, "core.mirror_oracle");
      mirror_oracle(sets, pool, cache, tr, out, report);
    }
    for (const bool radius : {false, true}) {
      auto t = Clock::now();
      const auto plain = estimate(g, radius, opt);
      out.add("untraced_s", seconds_since(t));

      runtime::MetricsRegistry registry;
      core::Theorem11Options traced_opt = opt;
      traced_opt.metrics = &registry;
      core::Theorem11Result res;
      {
        Tracer::Span span(tr, radius ? "core.radius" : "core.diameter");
        res = estimate(g, radius, traced_opt);
        out.add("traced_s", span.elapsed());
      }
      out.add("trace.t11_overhead_s", out.last("traced_s") - out.last("untraced_s"));
      report.gate(core::semantically_equal(plain, res),
                  "traced estimate differs from the untraced one");
      out.add("core.sample_s", res.phase_seconds.sample);
      out.add("core.oracle_s", res.phase_seconds.oracle);
      out.add("core.measure_s", res.phase_seconds.measure);
      out.add("quantum.search_s", res.phase_seconds.search);
      out.add("quantum.outer_calls", static_cast<double>(res.outer_calls));
      const double evals = static_cast<double>(res.oracle.value_evaluations);
      const double hits = static_cast<double>(res.oracle.memo_hits);
      out.add("quantum.oracle_useful_ratio",
              evals + hits > 0 ? evals / (evals + hits) : 0.0);

      MirrorRounds mirror;
      double mirror_measure_s = 0;
      {
        Tracer::Span span(tr, "core.mirror_measure");
        mirror = mirror_measure(g, sets, res, cache, tr, out, report,
                                mirror_measure_s);
      }
      const std::string why = mirror_gate(
          mirror, {res.measured.t0_rounds, res.measured.t_setup_rounds,
                   res.measured.t_eval_rounds});
      report.gate(why.empty(), "seed " + std::to_string(seeds[k]) + ": " + why);
      if (res.phase_seconds.measure > 0) {
        out.add("core.measure_mirror_coverage",
                mirror_measure_s / res.phase_seconds.measure);
      }

      service::QueryResult served;
      {
        Tracer::Span span(tr, radius ? "service.query.t11_radius"
                                     : "service.query.t11_diameter");
        served = engine.query(served_query(graph, radius, seeds[k]));
        if (!radius) out.add("service.exec_ms.t11_diameter", span.elapsed());
      }
      check(res, radius, served);
    }
  }

  for (const char* name :
       {"congest.preamble_s", "congest.flood_s", "congest.aggregate_s",
        "paths.alg3_s", "paths.alg4_s", "paths.alg5_s", "paths.skeleton_s",
        "paths.toolkit_rows_s", "paths.evaluate_set_s",
        "paths.evaluate_set_pooled_s", "quantum.search_s", "core.sample_s",
        "core.oracle_s", "core.measure_s"}) {
    out.report(report, name, "s");
  }
  out.report(report, "congest.sim_rounds", "rounds");
  out.report(report, "congest.messages_per_round", "msgs/round");
  out.report(report, "congest.host_ns_per_round", "ns");
  for (const char* name : {"paths.alg3_rounds", "paths.alg4_rounds",
                           "paths.alg5_rounds"}) {
    out.report(report, name, "rounds");
  }
  out.report(report, "paths.alg3_messages", "msgs");
  out.report(report, "paths.alg5_messages", "msgs");
  out.report(report, "paths.alg3_attempts", "count");
  out.report(report, "runtime.pool_speedup", "x");
  report.set("runtime.pool_workers", pool.worker_count(), "count");
  out.report(report, "quantum.outer_calls", "count");
  out.report(report, "quantum.oracle_useful_ratio", "ratio");
  out.report(report, "core.measure_mirror_coverage", "ratio");
  out.report(report, "service.exec_ms.t11_diameter", "ms", 1e3);
  // Traced minus untraced wall time of the same estimate, paired.
  out.report(report, "trace.t11_overhead_s", "s");
  report.set("trace.t11_overhead_share",
             out.med("trace.t11_overhead_s") / out.med("untraced_s"), "ratio",
             out.count("untraced_s"));
  return {};
}

}  // namespace perfbench

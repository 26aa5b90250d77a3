// Served read/write half of a workload: a closed loop of client
// threads against one warmed QueryEngine, a post-run answer check, and
// the traced run's per-layer service/graph split.
#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "bench.h"
#include "core/theorem11.h"
#include "graph/algorithms.h"
#include "graph/update.h"
#include "paths/reference.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace perfbench {

using namespace qc;

std::string answer_gate(const service::QueryResult& got,
                        const service::QueryResult& want) {
  if (!got.ok) return got.type + " failed: " + got.error;
  if (got.value != want.value || got.scale != want.scale) {
    return got.type + " value differs from the reference";
  }
  if (got.dist != want.dist) return got.type + " distances differ";
  return "";
}

namespace {

constexpr const char* kTypes[] = {"eccentricity", "sssp", "approx_distance",
                                  "update"};
constexpr std::size_t kScriptLength = 8192;
/// Source/target pairs of the post-run answer check.
constexpr std::size_t kCheckSamples = 8;

/// Pre-generated per-client query scripts: 40% eccentricity, 20% sssp,
/// 30% approx_distance, 10% reweight of a random edge other than the
/// pinned max-weight one (so the toolkit's parameters never change).
std::vector<std::vector<service::Query>> make_scripts(
    const WeightedGraph& g, const std::string& graph, std::uint64_t seed,
    unsigned clients) {
  const auto& edges = g.edges();
  const Weight max_w = g.max_weight();
  const auto pinned = static_cast<std::size_t>(
      std::find_if(edges.begin(), edges.end(),
                   [&](const Edge& e) { return e.weight == max_w; }) -
      edges.begin());
  const NodeId n = g.node_count();
  std::vector<std::vector<service::Query>> scripts(clients);
  for (unsigned c = 0; c < clients; ++c) {
    Rng rng(runtime::derive_seed(seed, 0x5e7e + c));
    auto& script = scripts[c];
    script.reserve(kScriptLength);
    for (std::size_t i = 0; i < kScriptLength; ++i) {
      service::Query q;
      q.graph = graph;
      const std::uint64_t roll = rng.below(10);
      q.type = kTypes[roll < 4 ? 0 : roll < 6 ? 1 : roll < 9 ? 2 : 3];
      q.node = static_cast<NodeId>(rng.below(n));
      q.target = static_cast<NodeId>(rng.below(n));
      if (roll == 9) {
        std::size_t e = rng.below(edges.size() - 1);
        if (e >= pinned) ++e;
        q.op = "reweight";
        q.node = edges[e].u;
        q.target = edges[e].v;
        q.weight = 1 + rng.below(max_w);
      }
      script.push_back(std::move(q));
    }
  }
  return scripts;
}

std::size_t type_index(const std::string& type) {
  return static_cast<std::size_t>(
      std::find(std::begin(kTypes), std::end(kTypes), type) -
      std::begin(kTypes));
}

struct Answer {
  std::size_t type = 0;
  double latency = 0;  ///< +inf when the query failed or was refused
  std::string error;   ///< empty when the answer passed its gate
};

/// The closed loop: every client submits its next query only after the
/// previous one was answered, until the deadline.
struct MixOutcome {
  std::vector<Answer> answers;
  double seconds = 0;
};

MixOutcome closed_loop(service::QueryEngine& engine,
                       const std::vector<std::vector<service::Query>>& scripts,
                       double seconds, std::size_t edge_count,
                       Report& report) {
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::vector<Answer>> per_client(scripts.size());
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < scripts.size(); ++c) {
      threads.emplace_back([&, c] {
        const auto& script = scripts[c];
        for (std::size_t i = 0; Clock::now() < deadline; ++i) {
          service::Query q = script[i % script.size()];
          q.id = i;
          Answer a{type_index(q.type), 0, ""};
          const auto t = Clock::now();
          try {
            const service::QueryResult r = engine.submit(std::move(q)).get();
            a.latency = seconds_since(t);
            if (!r.ok) {
              a.error = r.type + " failed: " + r.error;
            } else if (r.type == "update" &&
                       r.value != static_cast<Dist>(edge_count)) {
              a.error = "reweight changed the edge count";
            }
          } catch (const std::exception& e) {
            a.error = std::string("submit refused: ") + e.what();
          }
          if (!a.error.empty()) {
            a.latency = std::numeric_limits<double>::infinity();
          }
          per_client[c].push_back(std::move(a));
        }
      });
    }
  }
  MixOutcome out;
  out.seconds = seconds_since(start);
  for (auto& answers : per_client) {
    for (Answer& a : answers) {
      report.gate(a.error.empty(), a.error);
      out.answers.push_back(std::move(a));
    }
  }
  return out;
}

/// After the loop, on the quiesced engine: a fixed sample of reads must
/// equal graph/algorithms and a fresh ToolkitCache on the final graph.
void check_final_answers(service::QueryEngine& engine,
                         const std::string& graph, std::uint64_t seed,
                         Report& report) {
  service::GraphContext& ctx = *engine.find_graph(graph);
  const WeightedGraph& g = ctx.graph();
  core::Theorem11Options opt;
  opt.eps_inv = ctx.toolkit_eps_inv();
  opt.r_override = ctx.toolkit_r_override();
  paths::ToolkitCache fresh(g, core::derive_params(g, opt));
  Rng rng(runtime::derive_seed(seed, 0xc4ec));
  for (std::size_t i = 0; i < kCheckSamples; ++i) {
    const auto u = static_cast<NodeId>(rng.below(g.node_count()));
    const auto v = static_cast<NodeId>(rng.below(g.node_count()));
    const std::vector<Dist> dist = dijkstra(g, u);
    service::Query q;
    q.graph = graph;
    q.node = u;
    q.target = v;
    service::QueryResult want;
    want.ok = true;

    q.type = want.type = "eccentricity";
    want.value = *std::max_element(dist.begin(), dist.end());
    std::string why = answer_gate(engine.query(q), want);
    report.gate(why.empty(), why);

    q.type = want.type = "sssp";
    want.value = dist[v];
    want.dist = dist;
    why = answer_gate(engine.query(q), want);
    report.gate(why.empty(), why);

    q.type = want.type = "approx_distance";
    want.value = fresh.approx_row(u)[v];
    want.scale = fresh.base_scale().sigma();
    want.dist.clear();
    why = answer_gate(engine.query(q), want);
    report.gate(why.empty(), why);
  }
}

}  // namespace

void run_mix(const MixConfig& cfg, service::QueryEngine& engine,
             const std::string& graph, std::uint64_t seed, Tracer* tracer,
             runtime::MetricsRegistry* registry, Report& report) {
  service::GraphContext& ctx = *engine.find_graph(graph);
  const std::size_t edge_count = ctx.edge_count();
  const auto scripts = make_scripts(ctx.graph(), graph, seed, cfg.clients);

  if (tracer == nullptr) {
    const MixOutcome mix =
        closed_loop(engine, scripts, cfg.seconds, edge_count, report);
    std::vector<double> lat;
    std::size_t answered = 0;
    for (const Answer& a : mix.answers) {
      lat.push_back(a.latency * 1e3);
      answered += std::isfinite(a.latency);
    }
    report.set("qps", static_cast<double>(answered) / mix.seconds,
               "queries/s", answered);
    report.set("latency_p50_ms", quantile(lat, 0.5), "ms", lat.size());
    report.set("latency_p99_ms", quantile(lat, 0.99), "ms", lat.size());
    check_final_answers(engine, graph, seed, report);
    return;
  }

  Tracer& tr = *tracer;
  constexpr std::size_t kExecSamples = 16;
  // Synchronous execution time per type on the quiesced engine.
  std::vector<double> exec_ms(std::size(kTypes), 0.0);
  for (std::size_t t = 0; t < std::size(kTypes); ++t) {
    std::vector<double> ms;
    for (std::size_t i = 0; i < scripts[0].size() && ms.size() < kExecSamples;
         ++i) {
      const service::Query& q = scripts[0][i];
      if (q.type != kTypes[t]) continue;
      tr.set_trace_id(1000 * (t + 1) + i);
      Tracer::Span span(tr, "service.query." + q.type);
      const service::QueryResult r = engine.query(q);
      ms.push_back(span.elapsed() * 1e3);
      report.gate(r.ok, q.type + " failed: " + r.error);
    }
    exec_ms[t] = median(ms);
    report.set(std::string("service.exec_ms.") + kTypes[t], exec_ms[t], "ms",
               ms.size());
  }

  // Update batches applied straight to the graph context, under the
  // exclusive side of its state lock as the engine's update handler
  // holds it. The script's approx_distance reads between two updates
  // run first (untimed), so each update meets the toolkit rows the mix
  // would have cached.
  std::vector<double> update_ms;
  std::uint64_t ecc_rows = 0, rows_dropped = 0, rebuilds = 0;
  const auto& script = scripts[0];
  for (std::size_t i = script.size() / 2;
       i < script.size() && update_ms.size() < kExecSamples; ++i) {
    const service::Query& q = script[i];
    if (q.type == "approx_distance") (void)engine.query(q);
    if (q.type != "update") continue;
    tr.set_trace_id(9000 + i);
    std::unique_lock<std::shared_mutex> lock(ctx.state_mutex());
    Tracer::Span span(tr, "graph.apply_update");
    const auto outcome = ctx.apply_update(
        GraphUpdate{}.reweight(q.node, q.target, q.weight), engine.pool(),
        engine.options().incremental_updates);
    update_ms.push_back(span.elapsed() * 1e3);
    ecc_rows += outcome.ecc_rows_recomputed;
    rows_dropped += outcome.toolkit_rows_dropped;
    rebuilds += outcome.toolkit_rebuilt;
  }
  const double updates = std::max<std::size_t>(1, update_ms.size());
  report.set("graph.update_ms", median(update_ms), "ms", update_ms.size());
  report.set("graph.ecc_rows_recomputed", static_cast<double>(ecc_rows) / updates,
             "rows/update", update_ms.size());
  report.set("graph.toolkit_rows_dropped",
             static_cast<double>(rows_dropped) / updates, "rows/update",
             update_ms.size());
  report.set("graph.toolkit_rebuilds", static_cast<double>(rebuilds), "count");
  report.gate(rebuilds == 0, "a reweight rebuilt the toolkit cache");

  // The same closed loop as the untraced run; wait = median
  // submit-to-answer time minus the synchronous execution median.
  const MixOutcome mix =
      closed_loop(engine, scripts, cfg.seconds, ctx.edge_count(), report);
  for (std::size_t t = 0; t < std::size(kTypes); ++t) {
    std::vector<double> lat;
    for (const Answer& a : mix.answers) {
      if (a.type == t) lat.push_back(a.latency * 1e3);
    }
    report.set(std::string("service.wait_ms.") + kTypes[t],
               median(lat) - exec_ms[t], "ms", lat.size());
  }
  const double batches =
      static_cast<double>(registry->counter("service.batches").value());
  const auto& sizes = registry->histogram(
      "service.batch_size", runtime::exponential_buckets(1.0, 2.0, 12));
  report.set("service.batches", batches, "count");
  report.set("service.batch_size_mean",
             sizes.count() ? sizes.sum() / static_cast<double>(sizes.count())
                           : 0.0,
             "queries", sizes.count());
  check_final_answers(engine, graph, seed, report);
}

}  // namespace perfbench

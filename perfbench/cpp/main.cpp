// perfbench: the repository benchmark program. perfbench/run.py builds
// and runs it; README.md gives the workloads and the metric map.
//
//   perfbench --workload t11_paper|t11_oracle|serve_rw --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//   perfbench --selftest
//
// Prints one JSON object: the correctness ledger, every metric of the
// run (end-to-end metrics untraced, per-layer metrics traced) with its
// unit and sample count, and the host fingerprint. Exits 1 when any
// correctness gate failed, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "bench.h"
#include "core/theorem11.h"
#include "graph/algorithms.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"

namespace perfbench {
namespace {

using namespace qc;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool selftest = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "t11_paper|t11_oracle|serve_rw --seed N --seconds S --trace "
               "0|1 [--trace-out FILE]\n       perfbench --selftest\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') {
    usage(std::string("bad value for ") + flag + ": " + s);
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(v, "--seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(v, "--seconds"));
      have_seconds = a.seconds >= 1;
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(v, "--trace");
      if (t > 1) usage("--trace must be 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.selftest) return a;
  if (!have_workload || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds (>= 1) are required");
  }
  if (a.workload != "t11_paper" && a.workload != "t11_oracle" &&
      a.workload != "serve_rw") {
    usage("unknown workload " + a.workload);
  }
  return a;
}

/// One workload. The Theorem 1.1 half always runs on the same instance
/// (graph seed 1, algorithm seeds 1..seed_count): at these sizes one
/// estimate's time and charged rounds swing by tens of percent with the
/// graph and the sampled sets, far more than a run can average away.
/// --seed drives the served mix: its graph (serve_rw) and its scripts.
struct Workload {
  T11Config t11;
  /// Seconds one Theorem 1.1 seed takes untraced on the baseline host
  /// (README): a diameter and a radius estimate, each direct and served.
  /// 0 = t11.seed_count seeds, whatever --seconds is.
  double seed_s = 0;
  /// Nodes of the separate mix graph (p = 3·log₂n/n, W = 64); 0 = none.
  qc::NodeId mix_n = 0;
};

/// A traced seed repeats each estimate untraced and traced, mirrors it
/// and serves it: about twice an untraced seed.
constexpr double kTracedSeedCost = 2.0;

/// Theorem 1.1 seeds of one run: as many as fit in --seconds at the
/// baseline host's cost, at least one. It depends on --seconds alone, so
/// every run of a workload does the same work and the same estimates.
std::size_t seeds_for(const Workload& w, double seconds, bool traced) {
  if (w.seed_s == 0) return w.t11.seed_count;
  const double cost = w.seed_s * (traced ? kTracedSeedCost : 1.0);
  return std::max<std::size_t>(1, static_cast<std::size_t>(seconds / cost));
}

Workload workload(const std::string& name) {
  Workload w;
  if (name == "t11_paper") {
    w.t11 = {256, 3.0, 8, 0, 0};
    w.seed_s = 13.5;
  } else if (name == "t11_oracle") {
    w.t11 = {1024, 1.2, 2, 1, 64};
    w.seed_s = 24;
  } else {
    // The mix graph carries no Theorem 1.1 work; a small paper-parameter
    // graph beside it gives the t11_* metrics a value on this workload.
    w.t11 = {128, 3.0, 8, 0, 0, 4};
    w.mix_n = 2048;
  }
  return w;
}

const std::string kT11Graph = "t11";
const std::string kMixGraph = "mix";
/// Shortest mix: serve_rw's fills what its Theorem 1.1 half leaves of
/// --seconds; the traced run of a t11 workload runs only this long.
constexpr double kMinMixSeconds = 3;
/// setup_s repeats the set-up at least three times and for this long.
constexpr double kSetupSeconds = 2;

/// Graph generation + add_graph + warm_all, the unit setup_s times.
std::unique_ptr<service::QueryEngine> set_up(
    const Workload& w, std::uint64_t seed,
    runtime::MetricsRegistry* registry, double& warm_s) {
  service::EngineOptions eo;
  eo.workers = host_threads();
  // The resident toolkit must carry the overrides the t11 queries use.
  eo.toolkit_eps_inv = w.t11.eps_inv;
  eo.toolkit_r_override = w.t11.r_override;
  eo.metrics = registry;
  auto engine = std::make_unique<service::QueryEngine>(eo);
  service::register_theorem11_handlers(*engine);
  engine->add_graph(kT11Graph, er_graph(w.t11.n, w.t11.p_log_factor,
                                        w.t11.max_w, 1));
  if (w.mix_n != 0) {
    engine->add_graph(kMixGraph, er_graph(w.mix_n, 3.0, 64,
                                          runtime::derive_seed(seed, 2)));
  }
  const auto t = Clock::now();
  engine->warm_all();
  warm_s = seconds_since(t);
  return engine;
}

void print_result(const Args& a, const Report& r) {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, ",
              runtime::json_string(a.workload).c_str(),
              static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0);
  std::printf(
      "\"host\": {\"nproc\": %u, \"compiler\": %s, \"build_type\": %s}, ",
      host_threads(), runtime::json_string("g++ " __VERSION__).c_str(),
      runtime::json_string(PERFBENCH_BUILD_TYPE).c_str());
  std::printf("\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              r.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted()),
              static_cast<unsigned long long>(r.failed()));
  std::printf("\"failures\": [");
  for (std::size_t i = 0; i < r.failures().size(); ++i) {
    std::printf("%s%s", i ? ", " : "", runtime::json_string(r.failures()[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  auto metrics = r.metrics();
  metrics["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB",
                            1};
  for (const auto& [name, m] : metrics) {
    // A metric over missing answers is not a number; the run is then
    // incorrect and run.py rejects the null.
    std::printf("%s%s: {\"value\": %s, \"unit\": %s, \"samples\": %zu}",
                first ? "" : ", ", runtime::json_string(name).c_str(),
                std::isfinite(m.value) ? runtime::json_number(m.value).c_str()
                                       : "null",
                runtime::json_string(m.unit).c_str(), m.samples);
    first = false;
  }
  std::printf("}}\n");
}

int run(const Args& a) {
  Workload w = workload(a.workload);
  w.t11.seed_count = seeds_for(w, a.seconds, a.trace);
  Report report;
  std::optional<Tracer> tracer;
  std::optional<runtime::MetricsRegistry> registry;
  if (a.trace) {
    tracer.emplace();
    registry.emplace();
  }
  Tracer* tr = tracer ? &*tracer : nullptr;

  // Set up several times and keep the last engine; setup_s is the
  // median.
  std::vector<double> setup_s, warm_s;
  std::unique_ptr<service::QueryEngine> engine;
  const auto setup_start = Clock::now();
  while (setup_s.size() < 3 || seconds_since(setup_start) < kSetupSeconds) {
    engine.reset();
    if (registry) registry->clear();
    const auto t = Clock::now();
    double warm = 0;
    engine = set_up(w, a.seed, registry ? &*registry : nullptr, warm);
    setup_s.push_back(seconds_since(t));
    warm_s.push_back(warm);
  }
  report.set("setup_s", median(setup_s), "s", setup_s.size());
  report.set("graph.warm_s", median(warm_s), "s", warm_s.size());

  // On the t11 workloads the served queries are the t11_* estimates (one
  // latency sample per seed, as for t11_served_s), and the read/write
  // mix runs only in the traced run (one client, for the
  // service/graph split). A short mix after the estimates measured
  // host noise more than the service: its run-to-run spread exceeded
  // every bound. serve_rw makes one pass over its small t11 graph, then
  // runs the mix for the rest of the run.
  std::vector<double> served_s;
  const auto start = Clock::now();
  {
    std::optional<Tracer::Span> span;
    if (tr) span.emplace(*tr, "core.t11_half");
    served_s = run_t11(w.t11, *engine, kT11Graph, tr, report);
  }
  if (w.mix_n != 0 || tr) {
    MixConfig mix;
    mix.seconds = w.mix_n ? std::max(kMinMixSeconds,
                                     a.seconds - seconds_since(start))
                          : kMinMixSeconds;
    mix.clients = w.mix_n ? host_threads() : 1;
    run_mix(mix, *engine, w.mix_n ? kMixGraph : kT11Graph, a.seed, tr,
            registry ? &*registry : nullptr, report);
  } else {
    std::vector<double> ms;
    double total_s = 0;
    for (const double s : served_s) {
      ms.push_back(s * 1e3);
      total_s += s;
    }
    report.set("qps", static_cast<double>(ms.size()) / total_s, "queries/s",
               ms.size());
    report.set("latency_p50_ms", quantile(ms, 0.5), "ms", ms.size());
    report.set("latency_p99_ms", quantile(ms, 0.99), "ms", ms.size());
  }

  if (tr) {
    const auto self = tr->self_seconds_by_layer();
    for (const char* layer :
         {"congest", "paths", "core", "service", "graph"}) {
      const auto it = self.find(layer);
      report.set(std::string("self_s.") + layer,
                 it == self.end() ? 0.0 : it->second, "s");
    }
    if (!a.trace_out.empty()) tr->write_json(a.trace_out);
  }
  engine.reset();
  print_result(a, report);
  for (const std::string& f : report.failures()) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
  }
  return report.failed() == 0 ? 0 : 1;
}

/// Smoke-size self-test: the untraced and traced halves run clean on a
/// 48-node graph, and each corrupted input fails the gate its clean
/// counterpart passes. Returns the number of broken expectations.
int selftest() {
  int broken = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::fprintf(stderr, "selftest: %-52s %s\n", what, ok ? "ok" : "BROKEN");
    broken += !ok;
  };

  Workload w;
  w.t11 = {48, 3.0, 8, 0, 0};
  double warm = 0;
  auto engine = set_up(w, 7, nullptr, warm);
  const WeightedGraph& g = engine->find_graph(kT11Graph)->graph();

  {
    Report clean;
    run_t11(w.t11, *engine, kT11Graph, nullptr, clean);
    Tracer tracer;
    run_t11(w.t11, *engine, kT11Graph, &tracer, clean);
    expect(clean.failed() == 0 && clean.attempted() > 0,
           "t11 estimates and the traced mirror pass");
  }

  core::Theorem11Options opt;
  opt.seed = 11;
  opt.oracle_workers = host_threads();
  const core::Theorem11Result res = core::quantum_weighted_diameter(g, opt);
  service::Query q;
  q.graph = kT11Graph;
  q.type = "t11_diameter";
  q.seed = opt.seed;
  const service::QueryResult served = engine->query(q);
  const Dist exact = weighted_diameter(g);
  const auto t11 = [&](Dist estimate) {
    return t11_gate(estimate, res.total_scale, res.params.eps_inv, exact,
                    res.distributed_value_matches, served.value, served.scale);
  };
  expect(t11(res.estimate_scaled).empty(), "clean estimate passes");
  expect(!t11(res.estimate_scaled + 1).empty(),
         "estimate one scale unit high fails");
  expect(!t11(res.estimate_scaled - 1).empty(),
         "estimate one scale unit low fails");
  // The range check alone: the served answer agrees with each estimate,
  // so only exact ≤ estimate ≤ (1+ε)²·exact can reject it.
  const auto range = [&](Dist estimate) {
    return t11_gate(estimate, res.total_scale, res.params.eps_inv, exact, true,
                    estimate, res.total_scale);
  };
  const Dist lo = exact * res.total_scale;
  const unsigned __int128 e = res.params.eps_inv;
  const auto hi = static_cast<Dist>((e + 1) * (e + 1) * lo / (e * e));
  expect(range(lo).empty() && range(hi).empty(),
         "estimates at both ends of the range pass");
  expect(!range(lo - 1).empty(), "estimate one unit below exact fails");
  expect(!range(hi + 1).empty(), "estimate one unit above (1+eps)^2 fails");

  q.type = "sssp";
  q.node = 3;
  q.target = 5;
  service::QueryResult got = engine->query(q);
  service::QueryResult want;
  want.ok = true;
  want.type = "sssp";
  want.dist = dijkstra(g, q.node);
  want.value = want.dist[q.target];
  expect(answer_gate(got, want).empty(), "clean sssp answer passes");
  got.dist[g.node_count() / 2] += 1;
  expect(!answer_gate(got, want).empty(), "one wrong sssp entry fails");

  const MirrorRounds measured{res.measured.t0_rounds,
                            res.measured.t_setup_rounds,
                            res.measured.t_eval_rounds};
  expect(mirror_gate(measured, measured).empty(), "matching mirror rounds pass");
  for (int field = 0; field < 3; ++field) {
    MirrorRounds off = measured;
    ++(field == 0 ? off.t0 : field == 1 ? off.setup : off.eval);
    expect(!mirror_gate(off, measured).empty(),
           "mirror round count off by one fails");
  }

  Report mix_report;
  MixConfig mix;
  mix.seconds = 1;
  mix.clients = 2;
  run_mix(mix, *engine, kT11Graph, 7, nullptr, nullptr, mix_report);
  expect(mix_report.failed() == 0 && mix_report.attempted() > 0,
         "served read/write mix passes");
  std::printf("{\"selftest\": %s}\n", broken == 0 ? "true" : "false");
  return broken == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return args.selftest ? perfbench::selftest() : perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}

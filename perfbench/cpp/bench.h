// Shared pieces of the repository benchmark: timing helpers, order
// statistics, the metric report and its correctness ledger, the span
// recorder of the traced run, and the two halves the workloads are
// made of (Theorem 1.1 estimates and a served read/write mix).
//
// The benchmark calls the library only through public entry points:
// core::quantum_weighted_diameter/radius and service::QueryEngine in
// the timed runs, plus the public per-layer calls the traced run
// repeats (congest primitives, paths toolkit and distributed
// algorithms, runtime pool). No library file is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "service/query_engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `v` (mean of the two middle values for even sizes); 0 for
/// an empty vector.
double median(std::vector<double> v);

/// Quantile q in [0, 1] by linear interpolation between order
/// statistics; +inf entries (missing answers) sort last.
double quantile(std::vector<double> v, double q);

/// One printed metric: a value with its unit and the number of samples
/// it summarizes.
struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 1;
};

/// Metrics plus the correctness ledger of one run. Every timed
/// operation is attempted once; a failed answer or failed gate marks it
/// failed (at most once per operation).
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1);
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  /// Counts one operation and, when `ok` is false, one failure with
  /// `what` as its diagnostic.
  bool gate(bool ok, const std::string& what);
  /// Adds a failure to an operation already counted.
  void fail(const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// In-memory span recorder for the traced run. A span's layer is its
/// name up to the first '.'. Spans nest through a stack (the traced
/// run records from one thread), and each carries the trace id of the
/// request it belongs to.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer& t, std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Seconds since the span opened.
    double elapsed() const;

   private:
    Tracer& t_;
    std::size_t index_;
  };

  Tracer();
  void set_trace_id(std::uint64_t id) { trace_id_ = id; }
  /// Per-layer self time: each span's duration minus the part its
  /// direct children cover, summed by layer.
  std::map<std::string, double> self_seconds_by_layer() const;
  /// Writes every span as Chrome trace-event JSON ("X" events, µs).
  void write_json(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    double start = 0, end = 0;
    long parent = -1;
    std::uint64_t trace_id = 0;
  };
  double now() const;

  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
  std::uint64_t trace_id_ = 0;
};

/// Connected Erdős–Rényi graph with p = p_log_factor·log₂n/n and
/// weights uniform in [1, max_w], generated from `seed`.
qc::WeightedGraph er_graph(qc::NodeId n, double p_log_factor,
                           qc::Weight max_w, std::uint64_t seed);

/// The host's hardware threads: every pool's worker count and the client
/// count of serve_rw's mix.
unsigned host_threads();

// ---- Theorem 1.1 estimates (t11.cpp) ----

struct T11Config {
  qc::NodeId n = 256;
  double p_log_factor = 3.0;
  qc::Weight max_w = 8;
  std::uint32_t eps_inv = 0;      ///< 0 = the paper's ⌈log₂ n⌉
  std::uint64_t r_override = 0;   ///< 0 = Eq. (1)'s r
  std::size_t seed_count = 1;     ///< Theorem 1.1 seeds per pass
};

/// Direct and served estimates on one warmed engine graph, for the
/// Theorem 1.1 seeds 1..seed_count. Untraced, it makes one pass over
/// the seeds (diameter and radius, each direct then served), sets
/// t11_direct_s, t11_served_s and charged_rounds, and returns one
/// served time per seed: the mean of its two served estimates. Traced,
/// it makes one pass that repeats each estimate untraced and traced and
/// mirrors it layer by layer, and sets the congest/paths/runtime/
/// quantum/core metrics, service.exec_ms.t11_diameter and the tracing
/// overhead.
std::vector<double> run_t11(const T11Config& cfg,
                            qc::service::QueryEngine& engine,
                            const std::string& graph, Tracer* tracer,
                            Report& report);

/// The gate every estimate passes: exact ≤ estimate ≤ (1+ε)²·exact in
/// exact integer arithmetic, the distributed validation, and served
/// value/scale equal to the direct estimate_scaled/total_scale.
/// Returns "" when it holds, else the reason.
std::string t11_gate(qc::Dist estimate_scaled, std::uint64_t total_scale,
                     std::uint32_t eps_inv, qc::Dist exact,
                     bool distributed_matches, qc::Dist served_value,
                     std::uint64_t served_scale);

/// Rounds the traced mirror measured for one estimate, compared
/// field by field against Theorem11Result::measured.
struct MirrorRounds {
  std::uint64_t t0 = 0, setup = 0, eval = 0;
};
std::string mirror_gate(const MirrorRounds& mirror,
                        const MirrorRounds& measured);

// ---- Served read/write mix (serve.cpp) ----

struct MixConfig {
  double seconds = 5;
  unsigned clients = 1;
};

/// Closed-loop read/write mix on one warmed engine graph: `clients`
/// threads each call submit(q).get() on a pre-generated script (40%
/// eccentricity, 20% sssp, 30% approx_distance, 10% reweight updates,
/// one max-weight edge pinned) until `seconds` pass; then a fixed
/// sample of answers is checked against graph/algorithms and a fresh
/// ToolkitCache on the final graph. Untraced it sets qps,
/// latency_p50_ms and latency_p99_ms; traced it sets the service.* and
/// graph.* metrics (the engine must carry a metrics registry, passed
/// as `registry`).
void run_mix(const MixConfig& cfg, qc::service::QueryEngine& engine,
             const std::string& graph, std::uint64_t seed, Tracer* tracer,
             qc::runtime::MetricsRegistry* registry, Report& report);

/// Compares one served answer with its reference; "" when equal.
std::string answer_gate(const qc::service::QueryResult& got,
                        const qc::service::QueryResult& want);

}  // namespace perfbench

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <thread>

#include "bench.h"
#include "graph/generators.h"
#include "runtime/metrics.h"
#include "util/error.h"
#include "util/rng.h"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (lo == hi || std::isinf(v[hi])) return v[hi];
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

bool Report::gate(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) fail(what);
  return ok;
}

void Report::fail(const std::string& what) {
  ++failed_;
  failed_ = std::min(failed_, attempted_);
  if (failures_.size() < 20) failures_.push_back(what);
}

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now() const { return seconds_since(origin_); }

Tracer::Span::Span(Tracer& t, std::string name)
    : t_(t), index_(t.records_.size()) {
  Record r;
  r.name = std::move(name);
  r.start = t.now();
  r.parent = t.open_.empty() ? -1 : static_cast<long>(t.open_.back());
  r.trace_id = t.trace_id_;
  t.records_.push_back(std::move(r));
  t.open_.push_back(index_);
}

Tracer::Span::~Span() {
  t_.records_[index_].end = t_.now();
  t_.open_.pop_back();
}

double Tracer::Span::elapsed() const {
  return t_.now() - t_.records_[index_].start;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<double> child_cover(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_cover[r.parent] += r.end - r.start;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const std::string layer = r.name.substr(0, r.name.find('.'));
    self[layer] += std::max(0.0, r.end - r.start - child_cover[i]);
  }
  return self;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  QC_REQUIRE(out.good(), "cannot write trace file " + path);
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i ? ",\n" : "\n") << "{\"name\": "
        << qc::runtime::json_string(r.name) << ", \"cat\": "
        << qc::runtime::json_string(r.name.substr(0, r.name.find('.')))
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << qc::runtime::json_number(r.start * 1e6)
        << ", \"dur\": " << qc::runtime::json_number((r.end - r.start) * 1e6)
        << ", \"args\": {\"trace_id\": " << r.trace_id
        << ", \"parent\": " << r.parent << "}}";
  }
  out << "\n]}\n";
}

qc::WeightedGraph er_graph(qc::NodeId n, double p_log_factor,
                           qc::Weight max_w, std::uint64_t seed) {
  qc::Rng rng(seed);
  const double p = p_log_factor * std::log2(static_cast<double>(n)) /
                   static_cast<double>(n);
  return qc::gen::randomize_weights(qc::gen::erdos_renyi_connected(n, p, rng),
                                    max_w, rng);
}

unsigned host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench

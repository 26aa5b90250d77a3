// Work-stealing thread pool for batch experiment execution.
//
// Every statistic the benchmarks report is an aggregate over many
// independent simulator runs (sweeps over n, graph family, seed, ε), and
// each run is single-threaded by construction (`Simulator` is
// one-instance-per-execution). The pool fans those runs out across
// cores: each worker owns a deque of tasks, takes from its own front,
// and steals from the back of a busier worker when it runs dry.
//
// Determinism contract: parallelism never touches randomness. Seeds for
// parallel work are derived per *task index* with `derive_seed`, never
// from thread ids or scheduling order, so a sweep is bit-reproducible
// at any worker count (asserted by tests/test_runtime.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "util/error.h"

namespace qc::runtime {

/// Derives the RNG seed for task `task_index` of a batch started from
/// `base_seed`. Stateless splitmix64-style mixing: changing either input
/// changes the output avalanche-style, and task i's seed does not depend
/// on which thread runs it or when.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t task_index);

/// Fixed-size work-stealing pool. Tasks are `void()` closures; errors
/// must be captured by the closure (see `parallel_for`, which does).
class ThreadPool {
 public:
  /// `workers == 0` sizes the pool to `std::thread::hardware_concurrency()`
  /// (at least 1).
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned worker_count() const;

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  /// Enqueues one task. From a worker thread the task lands on that
  /// worker's own deque (cheap, stealable); from outside, deques are fed
  /// round-robin.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void wait_idle();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Runs `fn(0), fn(1), ..., fn(count-1)` on the pool and blocks until
/// all complete. If any invocation throws, the first captured exception
/// is rethrown here (remaining tasks still run to completion). Called
/// from one of `pool`'s own workers (a nested call), it runs every
/// index inline on that worker in index order instead, so nesting
/// never deadlocks, even on a 1-worker pool.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// Splits `[0, prefix.size() - 1)` into at most `max_chunks` contiguous
/// ranges of balanced weight. `prefix` is an inclusive prefix sum over
/// the per-item weights (`prefix[0] == 0`, `prefix[i]` = weight of items
/// `[0, i)`), so chunk boundaries fall where the cumulative weight
/// crosses multiples of `total / chunks` — a prefix-sum cut, not a
/// greedy packing. Writes `chunks + 1` boundaries into `out`
/// (`out[c] <= out[c+1]`, first 0, last = item count); every chunk is
/// non-empty unless there are no items at all. A zero total falls back
/// to an even split by index. Deterministic in its inputs — boundaries
/// never depend on pool state or scheduling, which is what lets callers
/// with a byte-identical-output contract (the CONGEST simulator's
/// sharded merge, the kernel drivers) chunk by weight.
void balanced_ranges(std::span<const std::uint64_t> prefix,
                     std::size_t max_chunks, std::vector<std::size_t>& out);

/// Allocating convenience overload of the above.
std::vector<std::size_t> balanced_ranges(std::span<const std::uint64_t> prefix,
                                         std::size_t max_chunks);

/// Runs `fn(c, bounds[c], bounds[c+1])` on the pool for every non-empty
/// range described by `bounds` (as produced by `balanced_ranges`) and
/// blocks until all complete. Exceptions propagate as in parallel_for.
void parallel_for_ranges(
    ThreadPool& pool, std::span<const std::size_t> bounds,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Order-preserving parallel map: `out[i] = fn(items[i], i)`. The result
/// vector is indexed by input position regardless of execution order, so
/// downstream aggregation is deterministic at any worker count.
template <typename In, typename Fn>
auto parallel_map(ThreadPool& pool, const std::vector<In>& items, Fn&& fn)
    -> std::vector<decltype(fn(items[std::size_t{0}], std::size_t{0}))> {
  using Out = decltype(fn(items[std::size_t{0}], std::size_t{0}));
  std::vector<std::optional<Out>> slots(items.size());
  parallel_for(pool, items.size(),
               [&](std::size_t i) { slots[i].emplace(fn(items[i], i)); });
  std::vector<Out> out;
  out.reserve(items.size());
  for (auto& s : slots) {
    QC_CHECK(s.has_value(), "parallel_map slot left empty");
    out.push_back(std::move(*s));
  }
  return out;
}

}  // namespace qc::runtime

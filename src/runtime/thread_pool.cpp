#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

namespace qc::runtime {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t task_index) {
  // Two mixing rounds with the index folded in between: a collision would
  // need splitmix64 outputs to collide, which adjacent indices cannot.
  return splitmix64(splitmix64(base_seed) ^
                    (task_index * 0xd1342543de82ef95ULL));
}

struct ThreadPool::Impl {
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  explicit Impl(unsigned workers) {
    if (workers == 0) {
      workers = std::max(1u, std::thread::hardware_concurrency());
    }
    queues_ = std::vector<WorkerQueue>(workers);
    threads_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      stop_ = true;
      work_cv_.notify_all();
    }
    for (auto& t : threads_) t.join();
  }

  void submit(std::function<void()> task) {
    const unsigned w = home_queue();
    {
      std::lock_guard<std::mutex> lock(queues_[w].mutex);
      queues_[w].tasks.push_back(std::move(task));
    }
    {
      // queued_/in_flight_ and the notify must share state_mutex_ with the
      // waiters' predicate checks, or a worker between predicate and block
      // would miss the wakeup and strand the task.
      std::lock_guard<std::mutex> lock(state_mutex_);
      ++queued_;
      ++in_flight_;
      work_cv_.notify_one();
    }
  }

  void wait_idle() {
    std::unique_lock<std::mutex> lock(state_mutex_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }

  unsigned worker_count() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// The calling thread's worker index in this pool, if it is one.
  std::optional<unsigned> worker_index() const {
    for (unsigned w = 0; w < threads_.size(); ++w) {
      if (std::this_thread::get_id() == threads_[w].get_id()) return w;
    }
    return std::nullopt;
  }

 private:
  unsigned home_queue() {
    if (const auto w = worker_index()) return *w;
    return next_external_.fetch_add(1, std::memory_order_relaxed) %
           static_cast<unsigned>(queues_.size());
  }

  /// Own queue front first (submission order), then steal from the back
  /// of the first non-empty victim queue.
  std::optional<std::function<void()>> take(unsigned self) {
    {
      std::lock_guard<std::mutex> lock(queues_[self].mutex);
      if (!queues_[self].tasks.empty()) {
        auto task = std::move(queues_[self].tasks.front());
        queues_[self].tasks.pop_front();
        return task;
      }
    }
    const auto n = static_cast<unsigned>(queues_.size());
    for (unsigned k = 1; k < n; ++k) {
      const unsigned victim = (self + k) % n;
      std::lock_guard<std::mutex> lock(queues_[victim].mutex);
      if (!queues_[victim].tasks.empty()) {
        auto task = std::move(queues_[victim].tasks.back());
        queues_[victim].tasks.pop_back();
        return task;
      }
    }
    return std::nullopt;
  }

  void worker_loop(unsigned self) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(state_mutex_);
        work_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
        if (stop_ && queued_ == 0) return;
      }
      auto task = take(self);
      if (!task) continue;  // lost the race to another worker
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        --queued_;
      }
      (*task)();
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (--in_flight_ == 0) idle_cv_.notify_all();
      }
    }
  }

  std::vector<WorkerQueue> queues_;
  std::vector<std::thread> threads_;
  std::atomic<unsigned> next_external_{0};
  std::mutex state_mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::uint64_t queued_ = 0;     ///< tasks sitting in some deque
  std::uint64_t in_flight_ = 0;  ///< queued + currently executing
  bool stop_ = false;
};

ThreadPool::ThreadPool(unsigned workers)
    : impl_(std::make_unique<Impl>(workers)) {}

ThreadPool::~ThreadPool() = default;

unsigned ThreadPool::worker_count() const { return impl_->worker_count(); }

bool ThreadPool::on_worker_thread() const {
  return impl_->worker_index().has_value();
}

void ThreadPool::submit(std::function<void()> task) {
  QC_REQUIRE(static_cast<bool>(task), "cannot submit an empty task");
  impl_->submit(std::move(task));
}

void ThreadPool::wait_idle() { impl_->wait_idle(); }

void balanced_ranges(std::span<const std::uint64_t> prefix,
                     std::size_t max_chunks, std::vector<std::size_t>& out) {
  QC_REQUIRE(!prefix.empty() && prefix.front() == 0,
             "prefix must start with a leading 0");
  const std::size_t count = prefix.size() - 1;
  out.clear();
  out.push_back(0);
  if (count == 0) {
    out.push_back(0);
    return;
  }
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min(max_chunks, count));
  const std::uint64_t total = prefix.back();
  for (std::size_t c = 1; c < chunks; ++c) {
    std::size_t cut;
    if (total == 0) {
      cut = count * c / chunks;  // weightless items: even split by index
    } else {
      // First index whose cumulative weight reaches c/chunks of the
      // total — the prefix-sum cut. floor(total*c/chunks) computed
      // without overflow: total = q*chunks + r, so the product splits
      // into an exact q*c term plus r*c/chunks with r, c < chunks.
      const std::uint64_t target =
          (total / chunks) * c + (total % chunks) * c / chunks;
      cut = static_cast<std::size_t>(
          std::lower_bound(prefix.begin() + 1, prefix.end(), target) -
          prefix.begin());
    }
    // Clamp so every chunk keeps at least one item: a single huge item
    // cannot be split, and trailing zero-weight items must not starve
    // the remaining chunks.
    cut = std::max(cut, out.back() + 1);
    cut = std::min(cut, count - (chunks - c));
    out.push_back(cut);
  }
  out.push_back(count);
}

std::vector<std::size_t> balanced_ranges(std::span<const std::uint64_t> prefix,
                                         std::size_t max_chunks) {
  std::vector<std::size_t> out;
  balanced_ranges(prefix, max_chunks, out);
  return out;
}

void parallel_for_ranges(
    ThreadPool& pool, std::span<const std::size_t> bounds,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  QC_REQUIRE(!bounds.empty(), "bounds must hold at least one boundary");
  const std::size_t chunks = bounds.size() - 1;
  parallel_for(pool, chunks, [&](std::size_t c) {
    if (bounds[c] < bounds[c + 1]) fn(c, bounds[c], bounds[c + 1]);
  });
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (pool.on_worker_thread()) {
    // Nested call from one of this pool's own workers: fanning out and
    // blocking would hold the worker without lending its thread (on a
    // 1-worker pool, forever), so the caller runs every index itself.
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
  struct Shared {
    std::atomic<std::size_t> remaining;
    std::mutex mutex;
    std::condition_variable done_cv;
    std::exception_ptr first_error;
  };
  auto shared = std::make_shared<Shared>();
  shared->remaining.store(count, std::memory_order_relaxed);
  for (std::size_t i = 0; i < count; ++i) {
    pool.submit([shared, &fn, i] {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared->mutex);
        if (!shared->first_error) {
          shared->first_error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(shared->mutex);
      if (shared->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        shared->done_cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(shared->mutex);
  shared->done_cv.wait(lock, [&] {
    return shared->remaining.load(std::memory_order_acquire) == 0;
  });
  if (shared->first_error) std::rethrow_exception(shared->first_error);
}

}  // namespace qc::runtime

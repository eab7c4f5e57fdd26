#include "whart/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "whart/common/contracts.hpp"
#include "whart/common/obs.hpp"

namespace whart::common {

ResolvedThreadCount resolve_thread_count_detailed(unsigned requested) {
  if (requested > 0)
    return {requested, ThreadCountSource::kArgument};
  if (const char* env = std::getenv("WHART_THREADS")) {
    unsigned parsed = 0;
    const char* end = env + std::strlen(env);
    const auto [ptr, ec] = std::from_chars(env, end, parsed);
    if (ec == std::errc() && ptr == end)
      return {parsed > 0 ? parsed : 1, ThreadCountSource::kEnvironment};
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return {hardware > 0 ? hardware : 1, ThreadCountSource::kHardware};
}

unsigned resolve_thread_count(unsigned requested) {
  const ResolvedThreadCount resolved = resolve_thread_count_detailed(requested);
  WHART_GAUGE_SET("parallel.threads.resolved", resolved.threads);
  WHART_GAUGE_SET("parallel.threads.source",
                  static_cast<int>(resolved.source));
  return resolved.threads;
}

ThreadPool::ThreadPool(unsigned threads) {
  expects(threads >= 1, "at least one worker");
  WHART_GAUGE_SET("parallel.pool.size", threads);
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  std::size_t queued = 0;
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
    queued = queue_.size() - next_task_;
  }
  if (queued > 0) {
    // Destruction with work still queued is a caller bug (parallel_for
    // always drains via wait_idle); the workers will still run every
    // queued task before joining, but flag it loudly.
    std::fprintf(stderr,
                 "whart: ThreadPool destroyed with %zu task(s) still "
                 "queued; draining before join\n",
                 queued);
    WHART_COUNT_N("parallel.pool.shutdown_queued_tasks", queued);
    assert(queued == 0 && "ThreadPool destroyed with tasks still queued");
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  // Capture the submitting thread's causality (span + request id) and
  // start a flow arrow; the wrapped task re-establishes it in the
  // worker.  Inert — and the task left unwrapped — when tracing is off.
  const obs::TaskLink link = obs::TaskLink::begin();
  WHART_EVENT(kTaskSubmit, "parallel.pool", link.flow_id(), 0);
  if (link.active()) {
    task = [link, inner = std::move(task)] {
      const obs::TaskScope scope(link);
      inner();
    };
  }
  {
    const std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  WHART_COUNT("parallel.tasks");
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
  // Reclaim the drained queue storage.
  queue_.clear();
  next_task_ = 0;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(
          lock, [this] { return stopping_ || next_task_ < queue_.size(); });
      if (next_task_ >= queue_.size()) return;  // stopping, queue drained
      task = std::move(queue_[next_task_++]);
    }
    WHART_EVENT(kTaskStart, "parallel.pool", 0, 0);
    {
      WHART_TIMER("parallel.task.ns");
      task();
    }
    {
      const std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) idle_.notify_all();
    }
  }
}

namespace detail {

void parallel_for_impl(std::size_t n,
                       const std::function<void(std::size_t)>& fn,
                       unsigned threads) {
  WHART_SPAN("parallel_for");
  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(threads, n));
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto drain = [&] {
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) break;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        fn(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        const std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
    // Worker utilization: total productive time across all drains vs
    // the pool's wall-clock is derivable from this counter.
    WHART_COUNT_N(
        "parallel.busy_ns",
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };

  {
    ThreadPool pool(workers);
    for (unsigned w = 0; w < workers; ++w) pool.submit(drain);
    pool.wait_idle();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail

}  // namespace whart::common

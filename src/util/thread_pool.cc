#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <system_error>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"

namespace re2xolap::util {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads <= 1) return;  // inline execution, no workers
  // The calling thread participates in ParallelFor, so T requested
  // threads need T-1 workers. A std::thread would allocate its start
  // state here and free it on the new thread, which puts the block back
  // in this thread's heap at a moment that varies from run to run; with
  // TripleStore::Freeze() starting a pool per call, that alone made
  // repeated set-ups grow and trim their heap (DESIGN.md §8).
  workers_.resize(num_threads - 1);
  for (size_t i = 0; i < workers_.size(); ++i) {
    workers_[i] = Worker{this, i, pthread_t{}};
    const int rc = pthread_create(&workers_[i].thread, nullptr,
                                  &ThreadPool::WorkerMain, &workers_[i]);
    if (rc != 0) {
      workers_.resize(i);
      Retire();
      throw std::system_error(rc, std::generic_category(),
                              "ThreadPool: pthread_create");
    }
  }
}

ThreadPool::~ThreadPool() { Retire(); }

void* ThreadPool::WorkerMain(void* worker) {
  const Worker& w = *static_cast<const Worker*>(worker);
  w.pool->WorkerLoop(w.index);
  return nullptr;
}

void ThreadPool::Retire() {
  // One at a time, in index order, so whatever a worker's exit releases
  // goes back in the same order on every run.
  for (size_t i = 0; i < workers_.size(); ++i) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      retired_ = i + 1;
    }
    cv_.notify_all();
    pthread_join(workers_[i].thread, nullptr);
  }
}

void ThreadPool::WorkerLoop(size_t index) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock,
               [&] { return retired_ > index || head_ < queue_.size(); });
      if (head_ == queue_.size()) return;  // retired with a drained queue
      task = std::move(queue_[head_++]);
      if (head_ == queue_.size()) {
        queue_.clear();
        head_ = 0;
      }
    }
    // Fault-injection site at task start (delay only: tasks have no
    // status channel, and errors would mask real loop exceptions).
    FailpointPause("pool.task");
    // Occupancy counters: started − finished = tasks currently running,
    // surfaced by QueryLog::WriteIntrospectionReport.
    static obs::Counter& started =
        obs::MetricsRegistry::Global().GetCounter("pool.tasks.started");
    static obs::Counter& finished =
        obs::MetricsRegistry::Global().GetCounter("pool.tasks.finished");
    started.Inc();
    task();
    finished.Inc();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared loop state: an atomic claim counter plus first-exception
  // capture. Helpers (including the calling thread) pull indexes until
  // the range is exhausted or an exception is captured.
  // It lives on the caller's stack: the caller returns only after the
  // last helper has counted itself out under `done_mu`, so helpers hold a
  // plain pointer, and each queued helper fits std::function's inline
  // buffer. A loop thus allocates nothing, and no worker frees a block
  // the caller allocated (which would put it back in the caller's heap
  // in an order that varies from run to run).
  struct LoopState {
    size_t n;
    const std::function<void(size_t)>* fn;
    // The caller's active trace span, propagated to the helpers so spans
    // opened inside `fn` on worker threads nest under it (the parallel
    // fan stays attached to its parent in a captured trace).
    obs::SpanId parent_span;
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error{};
    std::mutex error_mu{};
    size_t active_helpers = 0;  // guarded by done_mu
    std::mutex done_mu{};
    std::condition_variable done_cv{};

    void Drain() {
      obs::ScopedSpanContext span_ctx(parent_span);
      for (;;) {
        if (failed.load(std::memory_order_acquire)) return;
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          (*fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_release);
          return;
        }
      }
    }
  } state{.n = n,
          .fn = &fn,
          .parent_span =
              obs::Tracer::Global().enabled() ? obs::CurrentSpan() : 0};

  // Enqueue one helper per worker (capped at n-1: the caller covers the
  // rest). The caller waits for all of them to finish, also when `fn`
  // threw, because `fn` and `state` are caller-owned.
  const size_t helpers = std::min(workers_.size(), n - 1);
  state.active_helpers = helpers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t h = 0; h < helpers; ++h) {
      queue_.emplace_back([st = &state] {
        st->Drain();
        std::lock_guard<std::mutex> lock(st->done_mu);
        if (--st->active_helpers == 0) st->done_cv.notify_all();
      });
    }
  }
  cv_.notify_all();

  state.Drain();

  std::unique_lock<std::mutex> lock(state.done_mu);
  state.done_cv.wait(lock, [&state] { return state.active_helpers == 0; });
  if (state.error) std::rethrow_exception(state.error);
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.emplace_back(std::move(task));
  }
  cv_.notify_one();
}

size_t ThreadPool::DefaultThreads() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<size_t>(hc);
}

}  // namespace re2xolap::util

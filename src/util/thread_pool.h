#ifndef RE2XOLAP_UTIL_THREAD_POOL_H_
#define RE2XOLAP_UTIL_THREAD_POOL_H_

#include <pthread.h>

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

namespace re2xolap::util {

/// Fixed-size worker pool for fanning independent work items across
/// cores where no request runs: the generator's draw pass, snapshot
/// checksums and section loads, compaction's merge and predicate stats,
/// and TripleStore::Freeze()'s index build, whose chunks and buckets write
/// disjoint slices of arrays the caller allocated (a worker that
/// allocated would grow a heap arena of its own). Sized once at
/// construction; a pool of size 0 or 1 runs everything inline on the
/// calling thread, so callers never need a serial code path of their
/// own. Neither starting a worker nor a ParallelFor leaves a worker a
/// block of the caller's heap to free: a ParallelFor allocates nothing,
/// and the workers are POSIX threads (a std::thread allocates its start
/// state on the creator and frees it on the new thread). So the caller's
/// heap after a loop, and after the pool, is the same on every run; a
/// Submit()ted task that owns heap memory is still freed by the worker
/// that ran it.
///
/// Thread-safety contract: tasks submitted to the pool must only touch
/// shared state that is safe for concurrent reads (e.g. a TripleStore
/// after Freeze()) or state partitioned per task index. ParallelFor makes
/// no ordering guarantee between iterations; callers wanting deterministic
/// output should write results into per-index slots.
class ThreadPool {
 public:
  /// `num_threads` = 0 or 1 creates no workers (serial inline execution).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 means inline execution).
  size_t size() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n). Blocks until every iteration finished.
  /// Iterations are claimed atomically one index at a time, so uneven
  /// per-item costs balance across workers. The calling thread
  /// participates, so a pool of size T applies T+1-way parallelism to the
  /// loop (and exactly 1-way when the pool is empty).
  ///
  /// If any iteration throws, the first exception (in completion order) is
  /// rethrown on the calling thread after all claimed iterations drain;
  /// remaining unclaimed iterations are skipped.
  ///
  /// When tracing is enabled (obs::Tracer), the caller's active span is
  /// propagated to the worker threads for the duration of the loop, so
  /// spans opened inside `fn` nest under the caller's span.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Enqueues one fire-and-forget task. Runs inline on the calling thread
  /// when the pool has no workers (so callers need no serial fallback of
  /// their own, mirroring ParallelFor). The destructor drains queued tasks
  /// before joining, so a submitted task always runs — callers that need
  /// completion signalling build it into the task (store::Ingestor's
  /// compaction inflight flag does this).
  void Submit(std::function<void()> task);

  /// Convenience: a process-wide default number of workers. Returns
  /// hardware_concurrency (at least 1).
  static size_t DefaultThreads();

 private:
  struct Worker {
    ThreadPool* pool;
    size_t index;
    pthread_t thread;
  };
  static void* WorkerMain(void* worker);
  void WorkerLoop(size_t index);
  // Lets the workers exit, one at a time and in index order, once the
  // queue is drained, and joins them.
  void Retire();

  // Sized once, before any worker starts: each worker reads its entry.
  std::vector<Worker> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  // Queued tasks; [head_, size) are still to run. Taking a task frees
  // nothing (a deque frees each drained block on the worker that empties
  // it): the vector is cleared, keeping its capacity, once drained.
  std::vector<std::function<void()>> queue_;
  size_t head_ = 0;
  // Workers with an index below this exit once the queue is drained.
  size_t retired_ = 0;
};

}  // namespace re2xolap::util

#endif  // RE2XOLAP_UTIL_THREAD_POOL_H_

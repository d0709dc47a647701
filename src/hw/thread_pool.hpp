// Fixed-size thread pool with a static-partition parallel_for.
//
// This is the execution substrate for the "mobile CPU" measured path. RNN
// inference dispatches hundreds of sub-millisecond matvecs per frame, so
// dispatch latency dominates unless workers stay hot: workers spin briefly
// on an atomic generation counter before sleeping on a condition variable,
// tasks are claimed with an atomic cursor, and the calling thread helps
// execute — bringing dispatch cost from ~100 us (pure condvar) to ~1 us
// when the pool is busy.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace rtmobile {

/// A contiguous range of CPU cores, the placement hint the sharded
/// serving layer uses to keep engine replicas from fighting over cores:
/// shard s gets [s * threads_per_shard, ...) and pins its pool there.
struct CoreRange {
  std::size_t begin = 0;
  std::size_t count = 0;
};

class ThreadPool {
 public:
  /// Spawns `threads` persistent workers (>= 1). When `affinity` is set,
  /// spawned workers are pinned round-robin onto that core range
  /// (best-effort: unsupported platforms and invalid cores are ignored).
  /// Core `affinity->begin` is left for the calling thread, which
  /// participates in every job and can pin itself via
  /// pin_current_thread().
  explicit ThreadPool(std::size_t threads,
                      std::optional<CoreRange> affinity = std::nullopt);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured parallelism (the calling thread counts as one worker).
  [[nodiscard]] std::size_t thread_count() const {
    return configured_threads_;
  }

  /// Splits [0, n) into one contiguous chunk per worker and runs
  /// fn(chunk_begin, chunk_end) on each; blocks until all chunks finish.
  /// Exceptions thrown by fn propagate to the caller (first one wins).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// parallel_for variant that also hands fn the chunk index (0-based,
  /// < min(thread_count(), n)). Each chunk index is claimed exactly once
  /// per job, so it can key per-chunk scratch storage without locking.
  void parallel_for_indexed(
      std::size_t n, const std::function<void(std::size_t, std::size_t,
                                              std::size_t)>& fn);

  /// Runs `tasks` concurrently across the pool (the caller participates);
  /// blocks until all complete. Not reentrant from inside a task.
  void run_all(const std::vector<std::function<void()>>& tasks);

  /// A sensible default worker count for this host (hardware_concurrency,
  /// at least 1, capped at 16 to stay in smartphone-core territory).
  [[nodiscard]] static std::size_t default_thread_count();

  /// Best-effort pin of the calling thread to one core; returns false when
  /// pinning is unsupported on this platform or the core does not exist.
  static bool pin_current_thread(std::size_t core);

 private:
  void worker_loop();
  /// Claims and runs tasks from the current job; returns when drained.
  void drain_current_job();

  std::vector<std::thread> threads_;  // the caller is the extra worker
  std::size_t configured_threads_ = 1;

  // Job publication protocol: the caller writes tasks_/task_count_/next_/
  // remaining_, then bumps generation_ to odd (release); workers
  // acquire-read generation_ and then see a consistent job. When every
  // task is done the caller bumps generation_ to even (job closed) and
  // waits for active_ — workers inside drain_current_job() — to reach
  // zero before the job's state may die or be overwritten.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<int> active_{0};
  std::atomic<bool> shutting_down_{false};
  const std::vector<std::function<void()>>* tasks_ = nullptr;
  std::atomic<std::size_t> task_count_{0};
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> remaining_{0};

  std::mutex mutex_;  // guards sleeping/waking and error_
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  std::atomic<int> sleepers_{0};
  std::atomic<bool> caller_sleeping_{false};
  std::exception_ptr error_;
};

}  // namespace rtmobile

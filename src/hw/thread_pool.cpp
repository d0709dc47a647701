#include "hw/thread_pool.hpp"

#include <algorithm>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "util/check.hpp"

namespace rtmobile {
namespace {

// Spin budget before a worker sleeps / the caller blocks. Tuned for
// sub-millisecond kernels: ~10-30 us of spinning on current hardware.
constexpr int kSpinIterations = 1 << 14;

inline void spin_pause(int iteration) {
  // Yield occasionally so spinning does not starve co-scheduled threads.
  if ((iteration & 1023) == 1023) std::this_thread::yield();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads, std::optional<CoreRange> affinity) {
  RT_REQUIRE(threads >= 1, "thread pool needs at least one thread");
  RT_REQUIRE(!affinity || affinity->count >= 1,
             "thread pool affinity range must be non-empty");
  // The caller participates in every job, so spawn threads-1 workers to
  // keep the total concurrency at `threads`.
  const std::size_t workers = threads - 1;
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i, affinity] {
      if (affinity) {
        // Core begin is reserved for the caller; workers take the rest
        // round-robin so a range narrower than the pool still covers it.
        const std::size_t slot = affinity->count > 1
                                     ? 1 + i % (affinity->count - 1)
                                     : 0;
        pin_current_thread(affinity->begin + slot);
      }
      worker_loop();
    });
  }
  configured_threads_ = threads;
}

ThreadPool::~ThreadPool() {
  shutting_down_.store(true, std::memory_order_release);
  generation_.fetch_add(1, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    work_ready_.notify_all();
  }
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::drain_current_job() {
  const std::size_t count = task_count_.load(std::memory_order_acquire);
  const auto* tasks = tasks_;
  if (tasks == nullptr) return;
  for (;;) {
    const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= count) break;
    std::exception_ptr caught;
    try {
      (*tasks)[index]();
    } catch (...) {
      caught = std::current_exception();
    }
    if (caught) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = caught;
    }
    // seq_cst on both sides of the sleep handshake (this decrement and
    // flag read; the caller's flag store and counter read): with weaker
    // orders the caller's store can still sit in its store buffer when
    // it reads remaining_, both sides miss each other, and the caller
    // sleeps forever.
    if (remaining_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      // Last task of the job: wake the caller if it gave up spinning.
      if (caller_sleeping_.load(std::memory_order_seq_cst)) {
        const std::lock_guard<std::mutex> lock(mutex_);
        job_done_.notify_all();
      }
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = generation_.load(std::memory_order_acquire);
  for (;;) {
    // Hot path: spin on the generation counter.
    bool have_work = false;
    for (int spin = 0; spin < kSpinIterations; ++spin) {
      if (shutting_down_.load(std::memory_order_acquire)) return;
      if (generation_.load(std::memory_order_acquire) != seen) {
        have_work = true;
        break;
      }
      spin_pause(spin);
    }
    if (!have_work) {
      std::unique_lock<std::mutex> lock(mutex_);
      // seq_cst pairs with run_all's publish: either it sees this sleeper
      // and notifies, or this predicate sees its new generation.
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      work_ready_.wait(lock, [this, seen] {
        return shutting_down_.load(std::memory_order_acquire) ||
               generation_.load(std::memory_order_seq_cst) != seen;
      });
      sleepers_.fetch_sub(1, std::memory_order_acq_rel);
      if (shutting_down_.load(std::memory_order_acquire)) return;
    }
    seen = generation_.load(std::memory_order_acquire);
    if ((seen & 1U) == 0) continue;  // a job closed; wait for the next one
    // Announce, then re-check that the job seen is still open. The caller
    // closes a job before it waits for active_ to drain, so a worker that
    // passes this check keeps the job's state alive until it leaves, and
    // one that arrives later sees the close and never touches it.
    active_.fetch_add(1, std::memory_order_seq_cst);
    if (generation_.load(std::memory_order_seq_cst) == seen) {
      drain_current_job();
    }
    active_.fetch_sub(1, std::memory_order_release);
  }
}

void ThreadPool::run_all(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  RT_ASSERT(remaining_.load(std::memory_order_acquire) == 0,
            "nested run_all is not supported");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    error_ = nullptr;
  }
  tasks_ = &tasks;
  task_count_.store(tasks.size(), std::memory_order_relaxed);
  next_.store(0, std::memory_order_relaxed);
  remaining_.store(tasks.size(), std::memory_order_relaxed);
  caller_sleeping_.store(false, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_seq_cst);  // odd: job open
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    const std::lock_guard<std::mutex> lock(mutex_);
    work_ready_.notify_all();
  }

  // The caller is a worker too — on a 1-thread pool it does all the work.
  drain_current_job();

  // Wait for stragglers: spin briefly, then block.
  for (int spin = 0; spin < kSpinIterations; ++spin) {
    if (remaining_.load(std::memory_order_acquire) == 0) break;
    spin_pause(spin);
  }
  if (remaining_.load(std::memory_order_acquire) != 0) {
    std::unique_lock<std::mutex> lock(mutex_);
    caller_sleeping_.store(true, std::memory_order_seq_cst);
    job_done_.wait(lock, [this] {
      return remaining_.load(std::memory_order_seq_cst) == 0;
    });
    caller_sleeping_.store(false, std::memory_order_release);
  }
  // Close the job, then wait out workers still inside it (every task is
  // claimed, so they only have to notice and leave): until then `tasks`
  // must stay alive and the next job's state must not be written.
  generation_.fetch_add(1, std::memory_order_seq_cst);
  while (active_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  tasks_ = nullptr;

  std::exception_ptr to_throw;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    to_throw = error_;
    error_ = nullptr;
  }
  if (to_throw) std::rethrow_exception(to_throw);
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for_indexed(
      n, [&fn](std::size_t, std::size_t begin, std::size_t end) {
        fn(begin, end);
      });
}

void ThreadPool::parallel_for_indexed(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers = std::min(thread_count(), n);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = w * n / workers;
    const std::size_t end = (w + 1) * n / workers;
    tasks.emplace_back([&fn, w, begin, end] { fn(w, begin, end); });
  }
  run_all(tasks);
}

std::size_t ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 4 : hw, 1, 16);
}

bool ThreadPool::pin_current_thread(std::size_t core) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (core >= CPU_SETSIZE) return false;
  CPU_SET(core, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

}  // namespace rtmobile

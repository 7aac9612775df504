// Work-stealing thread pool for the parallel property scheduler.
//
// Each worker owns a deque: it pops its own work LIFO (cache-warm) and
// steals FIFO from a sibling when empty, which keeps the long BMC/ATPG
// property runs spread across cores without a single contended queue.
// Tasks here are seconds-long engine runs, so per-queue mutexes (rather
// than lock-free Chase-Lev deques) are well below the noise floor.
//
// Determinism note: the pool makes no ordering promises — callers that
// need deterministic output (core::ParallelDetector) index results by
// submission slot and merge in submission order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace trojanscout::util {

/// Shared cancellation flag with copyable handles. A task observes the
/// raw atomic via `flag()` (cheap polling inside engine inner loops);
/// any holder may `cancel()`.
class CancellationToken {
 public:
  CancellationToken()
      : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() noexcept { flag_->store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_acquire);
  }
  /// Stable address for the lifetime of every token copy; engines poll it.
  [[nodiscard]] const std::atomic<bool>* flag() const noexcept {
    return flag_.get();
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// `threads == 0` uses default_thread_count().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe; may be called from worker threads.
  void submit(Task task);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const { return threads_.size(); }

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t default_thread_count();

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t self);
  bool try_get_task(std::size_t self, Task& out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;

  // Tasks submitted but not yet finished (drives wait_idle).
  std::atomic<std::size_t> in_flight_{0};
  // Tasks sitting in queues, guarded by wake_mutex_ (drives worker sleep).
  std::size_t queued_ = 0;
  bool stop_ = false;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;

  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;

  std::atomic<std::size_t> next_queue_{0};
};

}  // namespace trojanscout::util

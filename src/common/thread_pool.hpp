#pragma once

/// \file
/// A minimal fixed-size thread pool (workers + FIFO task queue).

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace dbsp {

/// A fixed-size pool of worker threads executing submitted tasks in FIFO
/// order — the concurrency substrate of the matching engine's batch fan-out.
///
/// Thread safety: submit() may be called concurrently from any thread,
/// including from inside a running task. Each task's exceptions are captured
/// in its future and rethrown to the waiter. The destructor is a barrier:
/// it runs every task already in the queue to completion, then joins all
/// workers — no task is ever dropped. The queue and the stop flag are
/// DBSP_GUARDED_BY(mutex_), so under clang's thread-safety analysis any
/// new code path touching them without the lock fails to compile;
/// tests/concurrent_stress_test.cpp additionally proves construct/submit/
/// destroy cycles race-clean under ThreadSanitizer.
class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least one).
  explicit ThreadPool(std::size_t threads);

  /// Drains the queue (pending tasks still run), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues `task` and returns a future that completes once it ran.
  /// If the task throws, the exception is delivered through the future.
  /// Throws std::runtime_error when called after shutdown began.
  std::future<void> submit(std::function<void()> task) DBSP_EXCLUDES(mutex_);

  /// std::thread::hardware_concurrency() with a floor of 1 (the standard
  /// allows it to return 0 when undetectable).
  [[nodiscard]] static std::size_t hardware_threads();

 private:
  void worker_loop() DBSP_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar cv_;
  std::deque<std::packaged_task<void()>> queue_ DBSP_GUARDED_BY(mutex_);
  bool stop_ DBSP_GUARDED_BY(mutex_) = false;
  /// Written only by the constructor, before any worker can observe the
  /// pool; read-only afterwards, so unguarded access is safe.
  std::vector<std::thread> workers_;
};

}  // namespace dbsp

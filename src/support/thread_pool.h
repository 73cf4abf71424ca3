// Fixed-size thread pool for the compilation service.
//
// The pipeline is stateless per compile (CompileState is local to one
// Compiler::compile call), so batch and async compilation reduce to
// scheduling independent tasks over a small worker pool. This pool is
// deliberately minimal: a fixed number of workers created up front, a FIFO
// queue, and a blocking wait() barrier; no work stealing, task priorities,
// or resizing. Workers may run at a lower CPU priority than their creator
// (`workerNice`), as the daemon's compile pool does. Tasks must not throw (wrap and report through their own
// channel, e.g. a promise), and must not submit to the pool they run on
// while another thread is in wait() (the idle accounting would race).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace emm {

class ThreadPool {
public:
  /// Creates `threads` workers; values < 1 are clamped to 1. A positive
  /// `workerNice` makes each worker lower its own CPU priority to that nice
  /// value once, at start (Linux, best effort: kept when the kernel refuses
  /// or the worker already runs at that nice or lower priority).
  explicit ThreadPool(int threads, int workerNice = 0);
  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Throws ApiError after shutdown began.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle.
  void wait();

  /// A sensible default worker count for this machine (>= 1).
  static int defaultConcurrency();

private:
  void workerLoop();

  mutable std::mutex mutex_;
  std::condition_variable taskReady_;
  std::condition_variable allIdle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int active_ = 0;
  bool stopping_ = false;
};

}  // namespace emm

#include "support/thread_pool.h"

#include <algorithm>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

#include "support/diagnostics.h"

namespace emm {

namespace {

/// Lowers the calling thread's CPU priority to `nice`, best effort. On
/// Linux the nice value is per thread: PRIO_PROCESS with a thread id
/// touches that thread only.
void lowerOwnPriority(int nice) {
#if defined(__linux__)
  const id_t tid = static_cast<id_t>(::syscall(SYS_gettid));
  errno = 0;
  const int current = ::getpriority(PRIO_PROCESS, tid);
  if (errno == 0 && current >= nice) return;
  ::setpriority(PRIO_PROCESS, tid, nice);
#else
  (void)nice;
#endif
}

}  // namespace

ThreadPool::ThreadPool(int threads, int workerNice) {
  int n = std::max(1, threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this, workerNice] {
      if (workerNice > 0) lowerOwnPriority(workerNice);
      workerLoop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  taskReady_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  EMM_REQUIRE(task != nullptr, "null task submitted to thread pool");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    EMM_REQUIRE(!stopping_, "submit() on a stopping thread pool");
    queue_.push_back(std::move(task));
  }
  taskReady_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  allIdle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

int ThreadPool::defaultConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 2 : static_cast<int>(n);
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      taskReady_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) allIdle_.notify_all();
    }
  }
}

}  // namespace emm

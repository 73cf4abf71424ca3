// ServiceServer: the compile-service daemon core behind emmapcd.
//
// One server owns the networked plan store — an in-memory PlanCache (result
// + family tiers) optionally backed by a DiskPlanCache — and serves it over
// a unix-domain stream socket speaking service/protocol.h frames. Every
// client process that connects shares the same warm store, which makes the
// daemon a third, networked cache tier: a fresh `emmapc --connect` whose
// kernel family the daemon has seen is answered on the connection thread
// itself by binding the family's size-generic record straight out of the
// cache's epoch-published snapshot (WireStats::familyFastPath) — no pool
// dispatch, no pipeline run, no emission. The reply is a BoundReply: the
// record goes to the client once per connection (RecordSlotTable), later
// binds of the family ship only the overlay. Families without a record
// fall back to the pooled bind-and-emit path (CompileReply::serverFamilyHit).
//
// Threading: one accept thread, one lightweight thread per connection
// (clients are expected to be short-lived CLI/batch processes), and compile
// work dispatched onto a shared ThreadPool through Compiler's single-flight
// tiered caches — concurrent requests for the same plan collapse to one
// pipeline run, and CPU concurrency is bounded by `jobs`, not by the number
// of connected clients. The pool's workers run at background CPU priority
// (kCompilePoolNice): a cold compile takes milliseconds of CPU, a fast-path
// bind and every reply write tens of microseconds, so on a busy machine
// the connection threads go first instead of queueing behind compiles.
//
// Graceful shutdown (stop(), wired to SIGINT/SIGTERM in emmapcd): the
// listening socket closes first, in-flight compiles drain and their replies
// are delivered, idle connections are woken (read side shut down) and told
// "server shutting down" via an ErrorReply frame instead of seeing
// ECONNRESET, and the socket file is removed. Disk-cache writes happen
// synchronously inside each compile, so a drained server has flushed
// everything it accepted.
#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "driver/disk_cache.h"
#include "driver/plan_cache.h"
#include "service/protocol.h"

namespace emm {
class ThreadPool;
}

namespace emm::svc {

class ServiceServer {
public:
  struct Options {
    /// Unix-domain socket path; must fit sockaddr_un (~100 bytes). A stale
    /// socket file from a crashed daemon is replaced; a live one makes
    /// start() throw.
    std::string socketPath;
    /// Compile workers on the shared pool (0 = hardware default).
    int jobs = 0;
    /// Persistent plan store directory ("" = memory tiers only).
    std::string cacheDir;
    /// Result-tier capacity of the in-memory cache.
    size_t cacheCapacity = 1024;
    /// Shards of the in-memory cache (0 = one per hardware thread, rounded
    /// to a power of two; 1 = the single-mutex baseline).
    size_t cacheShards = 0;
  };

  /// Configures the store (creating the disk cache directory when set).
  /// Throws ApiError when the cache directory cannot be created.
  explicit ServiceServer(Options options);
  /// stop()s if still running.
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds, listens, and spawns the accept thread. Throws ApiError on an
  /// unusable path or a live daemon already owning the socket.
  void start();
  /// Graceful shutdown (see file comment). Idempotent; safe to call while
  /// clients are connected.
  void stop();
  bool running() const { return running_.load(); }

  /// The nice value the compile pool's workers lower themselves to (see
  /// the file comment). Only this pool runs below normal priority.
  static constexpr int kCompilePoolNice = 19;

  const std::string& socketPath() const { return options_.socketPath; }

  /// Daemon counters plus both cache tiers (the STATS reply).
  WireStats stats() const;
  PlanCache& planCache() { return cache_; }
  DiskPlanCache* diskCache() { return disk_.get(); }

private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
    RecordSlotTable slots;  ///< the records this client holds; its thread only
  };

  void acceptLoop();
  void serveConnection(Connection* conn);
  /// Decodes, validates, dispatches one compile; returns false when the
  /// connection should close (protocol error). Replies on all paths.
  bool handleCompile(Connection& conn, const std::string& payload);
  void countProtocolError();
  /// Joins and erases finished connection threads; requires mutex_.
  void reapFinishedLocked();

  Options options_;
  PlanCache cache_;
  std::unique_ptr<DiskPlanCache> disk_;
  std::unique_ptr<ThreadPool> pool_;
  int listenFd_ = -1;
  std::thread acceptThread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::mutex stopMutex_;      ///< serializes start/stop transitions
  mutable std::mutex mutex_;  ///< guards connections_ only
  std::list<std::unique_ptr<Connection>> connections_;
  // Relaxed atomics: per-request counting never contends with a concurrent
  // STATS snapshot or another connection's reply hot path.
  std::atomic<i64> connectionCount_{0};
  std::atomic<i64> requests_{0};
  std::atomic<i64> compiles_{0};
  std::atomic<i64> compileErrors_{0};
  std::atomic<i64> protocolErrors_{0};
  std::atomic<i64> familyFastPath_{0};
  std::atomic<i64> familyRecordSends_{0};
};

}  // namespace emm::svc

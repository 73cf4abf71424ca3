// emmapcd — the emmap compile-service daemon.
//
// Hosts a shared, networked plan store (service/server.h) on a unix-domain
// socket. Every `emmapc --connect=SOCK` (or ServiceClient) process that
// connects compiles through the daemon's single-flight tiered caches, so
// the family/plan warmth accumulated by one client serves all the others:
// a fresh client whose kernel family the daemon has already seen gets the
// cheap bind-and-emit path instead of a cold pipeline run.
//
// Usage:
//   emmapcd --socket=PATH                 unix-domain socket to serve
//           [--jobs=N]                    compile workers (default: hardware)
//           [--cache-dir=PATH]            persistent on-disk plan store
//           [--cache-capacity=N]          in-memory result-tier capacity
//           [--cache-shards=N]            cache shards (default: hardware;
//                                         1 = single-mutex baseline)
//           [--help]
//
// SIGINT/SIGTERM trigger a graceful drain: in-flight compiles finish and
// deliver their replies, idle clients get a "server shutting down"
// ErrorReply instead of ECONNRESET, the disk store is left consistent, and
// the socket file is removed before exit.
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string>

#include "service/server.h"
#include "support/cli.h"
#include "support/diagnostics.h"
#include "support/thread_pool.h"

using namespace emm;

namespace {

constexpr const char* kUsage =
    "usage: emmapcd --socket=PATH [--jobs=N] [--cache-dir=PATH]\n"
    "               [--cache-capacity=N] [--cache-shards=N] [--help]\n";

constexpr const char* kHelp =
    "emmapcd — the emmap compile-service daemon.\n"
    "\n"
    "Serves compile requests over a unix-domain socket so that many emmapc\n"
    "processes share one warm plan store (memory result + family tiers,\n"
    "optionally backed by a disk cache). Point clients at it with\n"
    "`emmapc --connect=PATH`.\n"
    "\n"
    "  --socket=PATH          unix-domain socket path to serve (required).\n"
    "                         A stale socket file from a crashed daemon is\n"
    "                         replaced; a live daemon on the path is an error.\n"
    "  --jobs=N               compile workers on the shared pool (default:\n"
    "                         hardware concurrency). Client connections are\n"
    "                         unbounded; CPU use is capped by this.\n"
    "  --cache-dir=PATH       persistent on-disk plan store shared with\n"
    "                         offline `emmapc --cache-dir` runs (created if\n"
    "                         missing).\n"
    "  --cache-capacity=N     in-memory result-tier capacity (default 1024).\n"
    "  --cache-shards=N       in-memory cache shards (default: one per\n"
    "                         hardware thread, rounded up to a power of two;\n"
    "                         1 reproduces the single-mutex baseline).\n"
    "  --help                 this text.\n"
    "\n"
    "Send SIGINT or SIGTERM to drain gracefully: in-flight compiles finish,\n"
    "idle clients are told \"server shutting down\", and the socket file is\n"
    "removed.\n";

// Self-pipe for signal-safe shutdown: the handler only write()s one byte.
int gSignalPipe[2] = {-1, -1};

void onTermSignal(int) {
  const char byte = 1;
  // Best effort; a full pipe already has a wakeup pending.
  (void)!::write(gSignalPipe[1], &byte, 1);
}

int run(cli::Args& args) {
  if (args.flag("help")) {
    std::fputs(kHelp, stdout);
    return 0;
  }
  svc::ServiceServer::Options opts;
  opts.socketPath = args.str("socket");
  opts.jobs = static_cast<int>(args.integer("jobs", 0));
  opts.cacheDir = args.str("cache-dir");
  opts.cacheCapacity = static_cast<size_t>(args.integer("cache-capacity", 1024));
  opts.cacheShards = static_cast<size_t>(args.integer("cache-shards", 0));
  if (!args.validate(kUsage)) return 2;
  if (opts.socketPath.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  EMM_REQUIRE(::pipe(gSignalPipe) == 0, "cannot create the signal pipe");
  struct sigaction sa = {};
  sa.sa_handler = onTermSignal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  svc::ServiceServer server(opts);
  server.start();
  std::printf("emmapcd: serving %s (jobs=%d%s%s)\n", server.socketPath().c_str(),
              opts.jobs > 0 ? opts.jobs : ThreadPool::defaultConcurrency(),
              opts.cacheDir.empty() ? "" : ", cache-dir=",
              opts.cacheDir.empty() ? "" : opts.cacheDir.c_str());
  std::fflush(stdout);

  // Block until a termination signal arrives.
  char byte = 0;
  while (::read(gSignalPipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("emmapcd: draining...\n");
  std::fflush(stdout);
  server.stop();

  svc::WireStats s = server.stats();
  std::printf("emmapcd: served %lld connections, %lld requests, %lld compiles "
              "(%lld errors, %lld protocol errors)\n",
              static_cast<long long>(s.connections), static_cast<long long>(s.requests),
              static_cast<long long>(s.compiles), static_cast<long long>(s.compileErrors),
              static_cast<long long>(s.protocolErrors));
  std::printf("emmapcd: family fast path served %lld requests on the connection thread, "
              "%lld of them shipping the family record\n",
              static_cast<long long>(s.familyFastPath),
              static_cast<long long>(s.familyRecordSends));
  std::printf("emmapcd: memory cache %lld hits / %lld misses, family %lld hits / %lld misses\n",
              static_cast<long long>(s.memory.hits), static_cast<long long>(s.memory.misses),
              static_cast<long long>(s.memory.familyHits),
              static_cast<long long>(s.memory.familyMisses));
  if (s.haveDisk)
    std::printf("emmapcd: disk cache %lld hits / %lld misses, family %lld hits / %lld misses\n",
                static_cast<long long>(s.disk.hits), static_cast<long long>(s.disk.misses),
                static_cast<long long>(s.disk.familyHits),
                static_cast<long long>(s.disk.familyMisses));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  try {
    return run(args);
  } catch (const ApiError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

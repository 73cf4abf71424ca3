// Shared helpers for the figure-replication and service bench drivers.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "gpusim/machine.h"

namespace emm::bench {

/// Formats byte/point counts the way the paper labels its x axes
/// (256k, 1M, 16M, ...).
inline std::string sizeLabel(i64 n) {
  if (n % (1 << 20) == 0) return std::to_string(n >> 20) + "M";
  if (n % (1 << 10) == 0) return std::to_string(n >> 10) + "k";
  return std::to_string(n);
}

inline void header(const char* title, const char* paperRef) {
  std::printf("== %s ==\n", title);
  std::printf("   reproduces: %s\n", paperRef);
}

inline void row(const std::string& label, double ms, const char* note = "") {
  std::printf("  %-10s %12.2f ms  %s\n", label.c_str(), ms, note);
}

/// Exits with status 1, naming the failed check, when `cond` is false.
inline void require(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    std::exit(1);
  }
}

/// Peak resident set size of this process, in KiB.
inline long maxRssKb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// The value at rank p * (n - 1) of an ascending sample; 0 when empty.
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[static_cast<size_t>(p * static_cast<double>(sorted.size() - 1))];
}

/// Throughput and latency tails of one measured config.
struct RunResult {
  double opsPerSec = 0;
  double p50us = 0, p99us = 0, p999us = 0;
  i64 ops = 0;
  double secs = 0;
};

/// Summarizes per-op latencies (microseconds, any order) taken over `secs`.
inline RunResult summarize(std::vector<double> latUs, double secs) {
  std::sort(latUs.begin(), latUs.end());
  RunResult r;
  r.secs = secs;
  r.ops = static_cast<i64>(latUs.size());
  r.opsPerSec = secs > 0 ? static_cast<double>(r.ops) / secs : 0;
  r.p50us = percentile(latUs, 0.50);
  r.p99us = percentile(latUs, 0.99);
  r.p999us = percentile(latUs, 0.999);
  return r;
}

/// One machine-readable result line, `JSON {"bench":...}`, in the format
/// tools/diff_stress_baseline.py compares against bench/baselines/.
inline void jsonLine(const char* bench, const char* mode, size_t shards, const char* dist,
                     int threads, const RunResult& r, double hitRate, i64 entries) {
  std::printf("JSON {\"bench\":\"%s\",\"mode\":\"%s\",\"shards\":%zu,"
              "\"dist\":\"%s\",\"threads\":%d,\"ops\":%lld,\"secs\":%.3f,"
              "\"ops_per_sec\":%.0f,\"p50_us\":%.2f,\"p99_us\":%.2f,"
              "\"p999_us\":%.2f,\"hit_rate\":%.4f,\"entries\":%lld,"
              "\"maxrss_kb\":%ld}\n",
              bench, mode, shards, dist, threads, static_cast<long long>(r.ops), r.secs,
              r.opsPerSec, r.p50us, r.p99us, r.p999us, hitRate, static_cast<long long>(entries),
              maxRssKb());
}

}  // namespace emm::bench

// Shared machinery of the benchmark: the seeded generator, exact
// client-side percentiles, multilogd child processes and their /proc
// probes, and the in-memory span recorder of traced runs.
#ifndef MULTILOG_PERFBENCH_PROBE_H_
#define MULTILOG_PERFBENCH_PROBE_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "server/client.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}
inline double MsSince(Clock::time_point start) {
  return MsSince(start, Clock::now());
}

/// The machine's CPU time from the first line of /proc/stat, in clock
/// ticks: all of it, and the part the hypervisor ran elsewhere (steal).
/// A run's record keeps the steal share of its window, so a slow run can
/// be told apart from a slow host.
struct HostCpu {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
HostCpu ReadHostCpu();

/// SplitMix64: a portable generator, so one seed gives byte-identical
/// inputs on every platform (std distributions are not portable).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Samples of one operation class. Percentiles are exact (nearest rank
/// over every sample).
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }
  /// The p-th percentile, or nullopt when fewer than `min_beyond`
  /// samples lie above its rank.
  std::optional<double> Percentile(double p, size_t min_beyond = 10) const;
  double Mean() const;

 private:
  std::vector<double> values_;
};

/// A multilogd child: spawned with its stdout on a pipe (the banner
/// names the bound port) and its stderr in `log_path`.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  /// Starts `binary args...` and waits for its "listening on" banner.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, std::string* error);
  /// SIGTERM, then SIGKILL after a grace period; always reaps.
  void Stop();

  uint16_t port() const { return port_; }

  /// Peak resident set (VmHWM) in MB, 0 when unreadable.
  double PeakRssMb() const;
  /// Current resident set (VmRSS) in MB.
  double RssMb() const;
  /// utime + stime in seconds.
  double CpuSeconds() const;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

/// Connects to the daemon on `port` and binds `level` (hello).
multilog::Result<multilog::server::Client> Session(uint16_t port,
                                                   const std::string& level);

/// One `stats` snapshot as parsed JSON (null on failure).
multilog::server::Json StatsOf(uint16_t port);

/// Integer at a dotted path of a stats snapshot ("engine.cache_hits").
int64_t StatInt(const multilog::server::Json& stats, const std::string& path);

/// The span recorder of traced runs: name, start, end, parent span and
/// request id, kept in memory and written out as JSON lines at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int64_t parent = -1;
    int64_t request = -1;
  };

  /// Opens a span; returns its index for End and as a parent id.
  int64_t Begin(const std::string& name, int64_t parent = -1,
                int64_t request = -1);
  /// Closes the span and returns its duration in microseconds.
  double End(int64_t span);
  /// Records a closed child of `parent` that started `offset_us` after
  /// it and lasted `dur_us` (a span timed by another process).
  void Child(int64_t parent, const std::string& name, double offset_us,
             double dur_us);
  /// Closed spans named `name`, and all spans.
  size_t Count(const std::string& name) const;
  size_t size() const;
  /// Median duration in microseconds of spans named `name` (0 if none).
  double MedianUs(const std::string& name) const;
  bool Write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Closes its span when it goes out of scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent = -1,
             int64_t request = -1)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // MULTILOG_PERFBENCH_PROBE_H_

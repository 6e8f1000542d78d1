// The four workloads. Each one owns its server processes, its seeded
// op sequences and its reference answers; the untraced window gives the
// end-to-end metrics and the traced run adds the per-layer ones.
#ifndef MULTILOG_PERFBENCH_WORKLOADS_H_
#define MULTILOG_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.h"
#include "server/json.h"
#include "sigma.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string multilogd;  // path of the daemon binary
  std::string work_dir;   // scratch space of this run
};

/// |Sigma_0|: of a full run, and of the smoke size the benchmark's own
/// test runs.
constexpr size_t kFacts = 2000;
constexpr size_t kSmokeFacts = 200;
inline size_t SigmaFacts(const Options& o) {
  return o.smoke ? kSmokeFacts : kFacts;
}

/// What the client saw during one measured window.
struct Window {
  Samples read;     // point reads (cold_build: first point query)
  Samples wide;     // key-free reads (cold_build: first wide query)
  Samples writes_assert;
  Samples writes_retract;
  Samples lag;      // primary ack -> replica answers min_seqno read
  Samples setup;    // set-up times in seconds
  double seconds = 0;          // wall time of the window
  uint64_t reads_done = 0;     // point reads answered inside it
  uint64_t writes_done = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double rss_mb = 0;           // peak RSS of the serving process(es)
  double server_cpu_s = 0;     // their utime + stime over the window
  /// Stages of the server span trees of the sampled "trace": true
  /// queries, us: queue_wait, and serialize of wide and of point reads.
  Samples queue_wait_us;
  Samples serialize_wide_us;
  Samples serialize_point_us;
  /// Request texts sent (a sample), for the parse replay.
  std::vector<std::string> request_texts;
  /// Point and wide goals sent, with their session levels.
  std::vector<std::pair<std::string, std::string>> point_goals;
  std::vector<std::pair<std::string, std::string>> wide_goals;
};

/// The result of a whole run: correctness verdict plus named metrics.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    int64_t samples = -1;
  };
  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = -1);
  /// Records an answer divergence; the run then fails.
  void Diverge(const std::string& what);
  bool correct() const { return divergences_ == 0; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  multilog::server::Json record = multilog::server::Json::Object();

 private:
  std::vector<Metric> metrics_;
  size_t divergences_ = 0;
  std::vector<std::string> notes_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates Sigma_0 and the op sequences; computes the reference
  /// answers every timed request is compared against.
  virtual bool Prepare(Report* report) = 0;
  /// Starts the server(s) and warms them; returns the set-up seconds,
  /// or a negative value on failure.
  virtual double Setup(Report* report) = 0;
  /// Stops the server(s) of the last Setup.
  virtual void Teardown() = 0;
  /// One measured window. With `tracer` set, spans are recorded around
  /// every request and a sample of queries asks for the server's own
  /// span tree.
  virtual void Run(double seconds, Tracer* tracer, Window* window,
                   Report* report) = 0;
  /// After the window(s): checks that need the servers (answers to the
  /// probe set, replica convergence, recovered state).
  virtual void Verify(Report* report) = 0;
  /// Traced runs: in-process replays timing each layer's public calls.
  virtual void Layers(const Window& window, Tracer* tracer,
                      Report* report) = 0;
  /// Whether Setup is paid once per run (false: per iteration, inside
  /// Run - cold_build).
  virtual bool SetupPerRun() const { return true; }
};

std::unique_ptr<Workload> MakeWorkload(const Options& options);

}  // namespace perfbench

#endif  // MULTILOG_PERFBENCH_WORKLOADS_H_

// mlbench: runs one workload of the repo benchmark against multilogd
// child processes and prints every metric by name with its unit, then
// one JSON result line. Usually started through perfbench/run.py, which
// builds this binary and multilogd first:
//
//   mlbench --workload read_serve --seed 7 --seconds 15 --trace 0
//           --multilogd PATH --work DIR [--smoke]
//
// Exit status: 0 when every answer matched its reference, 1 on any
// divergence or failure to run, 2 on bad arguments.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "layers.h"
#include "probe.h"
#include "server/json.h"
#include "sharding/shard_map.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using multilog::server::Json;

// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;

int Usage() {
  std::fprintf(stderr,
               "usage: mlbench --workload read_serve|write_churn|cold_build|"
               "routed --seed N --seconds S --trace 0|1 --multilogd PATH "
               "--work DIR [--smoke] [--commit C] "
               "[--build-type T]\n");
  return 2;
}

/// The end-to-end metrics, from an untraced window.
void EndToEnd(const Window& w, size_t min_beyond, Report* report) {
  auto median = [&](const Samples& s, const char* name) {
    if (auto v = s.Percentile(50, min_beyond)) {
      report->Set(name, *v, "ms", static_cast<int64_t>(s.count()));
    }
  };
  if (auto v = w.setup.Percentile(50, 0)) {
    report->Set("setup_s", *v, "s", static_cast<int64_t>(w.setup.count()));
  }
  median(w.read, "read_p50_ms");
  report->Set("read_qps", static_cast<double>(w.reads_done) / w.seconds, "1/s",
              static_cast<int64_t>(w.reads_done));
  median(w.wide, "wide_p50_ms");
  report->Set("rss_mb", w.rss_mb, "MB");
}

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},     {"read_p50_ms", "ms"}, {"read_qps", "1/s"},
    {"wide_p50_ms", "ms"}, {"rss_mb", "MB"},
};

/// The client-side numbers a traced run adds: the tails and the
/// write/replica timings, taken from its untraced window.
void ClientLayer(const Window& w, const Window& traced, Report* report) {
  auto set = [&](const char* name, const Samples& s, double p) {
    if (auto v = s.Percentile(p)) {
      report->Set(name, *v, "ms", static_cast<int64_t>(s.count()));
    }
  };
  set("client.read_p90_ms", w.read, 90);
  set("client.read_p99_ms", w.read, 99);
  set("client.wide_p90_ms", w.wide, 90);
  set("client.wide_p99_ms", w.wide, 99);
  set("client.assert_p50_ms", w.writes_assert, 50);
  set("client.retract_p50_ms", w.writes_retract, 50);
  set("client.replica_lag_p50_ms", w.lag, 50);
  set("client.replica_lag_p90_ms", w.lag, 90);
  report->Set("client.writes_per_s", static_cast<double>(w.writes_done) / w.seconds,
              "1/s", static_cast<int64_t>(w.writes_done));
  report->Set("client.failed_ops_ratio",
              w.attempted > 0 ? static_cast<double>(w.failed) /
                                    static_cast<double>(w.attempted)
                              : 0,
              "ratio", static_cast<int64_t>(w.attempted));
  report->Set("server.cpu_cores_busy", w.server_cpu_s / w.seconds, "cores");
  if (auto v = traced.queue_wait_us.Percentile(50, 0)) {
    report->Set("server.queue_wait_us", *v, "us",
                static_cast<int64_t>(traced.queue_wait_us.count()));
  }
  // The server's own serialize stage: of the wide answers where the
  // workload's server sends any, else of the point answers.
  const Samples& serialize = traced.serialize_wide_us.count() > 0
                                 ? traced.serialize_wide_us
                                 : traced.serialize_point_us;
  if (auto v = serialize.Percentile(50, 0)) {
    report->Set("server.serialize_us", *v, "us",
                static_cast<int64_t>(serialize.count()));
  }
  // Tracing overhead: the traced window's median against the untraced
  // one's, on the workload's point reads.
  const auto plain = w.read.Percentile(50, 0);
  const auto with = traced.read.Percentile(50, 0);
  if (plain && with && *plain > 0) {
    report->Set("trace.overhead_pct", (*with / *plain - 1) * 100, "%",
                static_cast<int64_t>(traced.read.count()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string commit = "unknown", build_type = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--workload") {
      o.workload = next();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(next().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::atof(next().c_str());
      have_seconds = true;
    } else if (arg == "--trace") {
      o.trace = next() == "1";
      have_trace = true;
    } else if (arg == "--multilogd") {
      o.multilogd = next();
    } else if (arg == "--work") {
      o.work_dir = next();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--commit") {
      commit = next();
    } else if (arg == "--build-type") {
      build_type = next();
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace || o.multilogd.empty() ||
      o.work_dir.empty() || o.seconds <= 0) {
    return Usage();
  }
  std::unique_ptr<Workload> workload = MakeWorkload(o);
  if (workload == nullptr) return Usage();
  std::filesystem::create_directories(o.work_dir);

  Report report;
  Json& rec = report.record;
  rec.Set("workload", Json::Str(o.workload));
  rec.Set("seed", Json::Int(static_cast<int64_t>(o.seed)));
  rec.Set("seconds", Json::Double(o.seconds));
  rec.Set("trace", Json::Bool(o.trace));
  rec.Set("smoke", Json::Bool(o.smoke));
  rec.Set("sigma_facts", Json::Int(static_cast<int64_t>(SigmaFacts(o))));
  rec.Set("commit", Json::Str(commit));
  rec.Set("build_type", Json::Str(build_type));
  rec.Set("nproc", Json::Int(sysconf(_SC_NPROCESSORS_ONLN)));

  Window window;
  bool ran = workload->Prepare(&report);
  // A digest of every generated input file: one seed, one set of bytes.
  Json inputs = Json::Object();
  for (const auto& entry : std::filesystem::directory_iterator(o.work_dir)) {
    if (entry.path().extension() != ".mlog") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      multilog::sharding::StableHash64(bytes)));
    inputs.Set(entry.path().filename().string(), Json::Str(hex));
  }
  rec.Set("inputs_fnv1a64", std::move(inputs));
  if (ran && workload->SetupPerRun()) {
    const int reps = o.smoke || o.trace ? 1 : kSetupReps;
    for (int r = 0; r < reps && ran; ++r) {
      if (r > 0) workload->Teardown();
      const double s = workload->Setup(&report);
      ran = s >= 0;
      if (ran) window.setup.Add(s);
    }
  }
  Tracer tracer;
  Window traced;
  if (ran) {
    const HostCpu host0 = ReadHostCpu();
    workload->Run(o.seconds, nullptr, &window, &report);
    const HostCpu host1 = ReadHostCpu();
    if (host1.total > host0.total) {
      rec.Set("host_steal_pct",
              Json::Double(100.0 * static_cast<double>(host1.steal - host0.steal) /
                           static_cast<double>(host1.total - host0.total)));
    }
    if (o.trace) {
      workload->Run(std::max(1.0, o.seconds / 2), &tracer, &traced, &report);
      workload->Layers(window, &tracer, &report);
      ClientLayer(window, traced, &report);
      report.Set("trace.spans", static_cast<double>(tracer.size()), "count");
      tracer.Write(o.work_dir + "/trace.jsonl");
    } else {
      EndToEnd(window, o.smoke ? 0 : 10, &report);
    }
    workload->Verify(&report);
  }
  workload->Teardown();
  report.attempted = window.attempted + traced.attempted;
  report.failed = window.failed + traced.failed;

  // Every metric of the run's kind, by name, in a fixed order.
  std::vector<std::pair<std::string, std::string>> names;
  if (o.trace) {
    for (const LayerMetric& m : LayerMetrics()) names.emplace_back(m.name, m.unit);
  } else {
    for (const auto& [n, u] : kEndToEnd) names.emplace_back(n, u);
  }
  Json metrics = Json::Object();
  Json recorded = Json::Object();
  Json samples = Json::Object();
  bool complete = true;
  for (const auto& [name, unit] : names) {
    const Report::Metric* found = nullptr;
    for (const Report::Metric& m : report.metrics()) {
      if (m.name == name) found = &m;
    }
    // An end-to-end metric without enough samples is a failed run. A
    // per-layer metric without data (a layer the workload never reaches,
    // a tail with too few samples) prints as n/a and is null with n=0 in
    // the record; the result line, which must list every per-layer
    // metric as a number, carries 0 for it.
    if (found == nullptr && !o.trace) {
      std::fprintf(stderr, "mlbench: %s has too few samples\n", name.c_str());
      complete = false;
      continue;
    }
    Json m = Json::Object();
    m.Set("unit", Json::Str(unit));
    if (found == nullptr) {
      std::printf("%-28s %14s %-6s (n=0)\n", name.c_str(), "n/a", unit.c_str());
      m.Set("value", Json::Double(0));
      Json none = m;
      none.Set("value", Json::Null());
      recorded.Set(name, std::move(none));
      samples.Set(name, Json::Int(0));
    } else {
      std::printf("%-28s %14.6f %-6s%s\n", name.c_str(), found->value,
                  unit.c_str(),
                  found->samples >= 0
                      ? (" (n=" + std::to_string(found->samples) + ")").c_str()
                      : "");
      m.Set("value", Json::Double(found->value));
      recorded.Set(name, m);
      samples.Set(name, Json::Int(found->samples));
    }
    metrics.Set(name, std::move(m));
  }
  for (const std::string& note : report.notes()) {
    std::fprintf(stderr, "mlbench: divergence: %s\n", note.c_str());
  }
  const bool correct = ran && report.correct() && complete;
  rec.Set("correct", Json::Bool(correct));
  rec.Set("attempted", Json::Int(static_cast<int64_t>(report.attempted)));
  rec.Set("failed", Json::Int(static_cast<int64_t>(report.failed)));
  rec.Set("metrics", std::move(recorded));
  rec.Set("sample_counts", samples);
  std::ofstream(o.work_dir + "/record.json") << rec.Serialize() << "\n";

  Json result = Json::Object();
  result.Set("correct", Json::Bool(correct));
  result.Set("attempted", Json::Int(static_cast<int64_t>(report.attempted)));
  result.Set("failed", Json::Int(static_cast<int64_t>(report.failed)));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Serialize().c_str());
  return correct ? 0 : 1;
}

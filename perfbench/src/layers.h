// Traced runs: in-process replays of a workload's operations that time
// each layer's public calls with the benchmark's own spans. Nothing
// under src/ is instrumented for this.
#ifndef MULTILOG_PERFBENCH_LAYERS_H_
#define MULTILOG_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "probe.h"
#include "storage/wal.h"
#include "workloads.h"

namespace perfbench {

/// The per-layer metrics every traced run prints, in output order,
/// with their units. A workload that never reaches a layer reports n/a.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& LayerMetrics();

/// server.parse_us over the window's requests; multilog.query_cached_us
/// and datalog.query_model_us over its point goals, against a warm
/// in-process engine.
void ReadPathLayers(const std::string& source, const Window& window,
                    Tracer* tracer, Report* report);

/// A full level build taken apart: ml::Reduce, PrepareProgram,
/// EvaluatePrepared, Engine::ReducedModel on a fresh engine, and a
/// magic plan compile + execute for `point_goal`, at every level.
void ColdBuildLayers(const std::string& source, const std::string& point_goal,
                     Tracer* tracer, Report* report);

/// The write path of `records` (the run's acknowledged writes, seqno
/// order): Engine::Assert/Retract with every level cached, the delta
/// splice + ApplyDelta on one level's encoded model, Storage appends and
/// SyncTo in `storage_dir`, and Engine::ApplyReplicated into an engine
/// with one warm level.
void WritePathLayers(const std::string& source,
                     const std::vector<multilog::storage::WalRecord>& records,
                     const std::string& storage_dir, Tracer* tracer,
                     Report* report);

/// sharding::RouteGoal over the window's goals.
void RoutingLayers(const std::string& source, const Window& window,
                   size_t shards, Tracer* tracer, Report* report);

/// Duration of the first span named `stage` in a server trace tree, in
/// microseconds (-1 when absent).
double TraceStageUs(const multilog::server::Json& tree,
                    const std::string& stage);

}  // namespace perfbench

#endif  // MULTILOG_PERFBENCH_LAYERS_H_

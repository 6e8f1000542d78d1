#include "layers.h"

#include <algorithm>

#include "datalog/eval.h"
#include "datalog/magic.h"
#include "multilog/engine.h"
#include "multilog/parser.h"
#include "multilog/reduction.h"
#include "server/protocol.h"
#include "sharding/routing.h"
#include "sharding/shard_map.h"
#include "storage/storage.h"

namespace perfbench {

using multilog::Result;
using multilog::ml::Engine;
using multilog::server::Json;
namespace datalog = multilog::datalog;
namespace ml = multilog::ml;

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"server.overhead_us", "us"},
      {"server.queue_wait_us", "us"},
      {"server.parse_us", "us"},
      {"server.serialize_us", "us"},
      {"server.cpu_cores_busy", "cores"},
      {"multilog.query_cached_us", "us"},
      {"multilog.assert_ms", "ms"},
      {"multilog.retract_ms", "ms"},
      {"multilog.reduce_ms", "ms"},
      {"multilog.model_build_ms", "ms"},
      {"multilog.decode_ms", "ms"},
      {"multilog.rss_per_level_mb", "MB"},
      {"multilog.cache_hit_ratio", "ratio"},
      {"multilog.fallback_ratio", "ratio"},
      {"multilog.plan_hit_ratio", "ratio"},
      {"datalog.prepare_ms", "ms"},
      {"datalog.eval_ms", "ms"},
      {"datalog.eval_rounds", "count"},
      {"datalog.facts_derived", "count"},
      {"datalog.apply_delta_ms", "ms"},
      {"datalog.query_model_us", "us"},
      {"datalog.magic_ms", "ms"},
      {"storage.append_us", "us"},
      {"storage.sync_ms", "ms"},
      {"storage.writes_per_sync", "ratio"},
      {"storage.wal_bytes_per_write", "B"},
      {"replication.apply_ms", "ms"},
      {"replication.lag_records", "count"},
      {"replication.reconnects", "count"},
      {"sharding.route_us", "us"},
      {"sharding.hop_us", "us"},
      {"sharding.scatter_skew", "ratio"},
      {"sharding.shard_errors", "count"},
      {"client.read_p90_ms", "ms"},
      {"client.read_p99_ms", "ms"},
      {"client.wide_p90_ms", "ms"},
      {"client.wide_p99_ms", "ms"},
      {"client.assert_p50_ms", "ms"},
      {"client.retract_p50_ms", "ms"},
      {"client.writes_per_s", "1/s"},
      {"client.replica_lag_p50_ms", "ms"},
      {"client.replica_lag_p90_ms", "ms"},
      {"client.failed_ops_ratio", "ratio"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  return metrics;
}

namespace {

/// Median of the spans named `name`, converted from microseconds.
void SetMedian(const Tracer& tracer, const std::string& span,
               const std::string& metric, double scale, const char* unit,
               Report* report) {
  const size_t n = tracer.Count(span);
  if (n > 0) {
    report->Set(metric, tracer.MedianUs(span) * scale, unit,
                static_cast<int64_t>(n));
  }
}

}  // namespace

double TraceStageUs(const Json& tree, const std::string& stage) {
  if (tree.GetString("stage") == stage) {
    return static_cast<double>(tree.GetInt("dur_us", -1));
  }
  if (const Json* children = tree.Find("children")) {
    for (const Json& child : children->array_items()) {
      const double us = TraceStageUs(child, stage);
      if (us >= 0) return us;
    }
  }
  return -1;
}

void ReadPathLayers(const std::string& source, const Window& window,
                    Tracer* tracer, Report* report) {
  for (const std::string& text : window.request_texts) {
    ScopedSpan span(tracer, "server.parse");
    Result<Json> json = Json::Parse(text);
    if (json.ok()) (void)multilog::server::ParseRequest(*json);
  }
  SetMedian(*tracer, "server.parse", "server.parse_us", 1, "us", report);

  Result<Engine> engine = Engine::FromSource(source);
  if (!engine.ok()) return;

  for (int round = 0; round < 3; ++round) {
    for (const auto& [level, goal] : window.point_goals) {
      Result<const datalog::Model*> model = engine->ReducedModel(level);
      Result<std::vector<ml::MlLiteral>> parsed = ml::ParseMlGoal(goal);
      if (!model.ok() || !parsed.ok()) continue;
      Result<std::vector<datalog::Literal>> generic =
          ml::TranslateGoalGeneric(*parsed, level);
      if (!generic.ok()) continue;
      {
        ScopedSpan span(tracer, "multilog.QuerySource");
        (void)engine->QuerySource(goal, level);
      }
      ScopedSpan span(tracer, "datalog.QueryModel");
      (void)datalog::QueryModel(**model, *generic);
    }
  }
  SetMedian(*tracer, "multilog.QuerySource", "multilog.query_cached_us", 1,
            "us", report);
  SetMedian(*tracer, "datalog.QueryModel", "datalog.query_model_us", 1, "us",
            report);
}

void ColdBuildLayers(const std::string& source, const std::string& point_goal,
                     Tracer* tracer, Report* report) {
  const datalog::EvalOptions options = ml::EngineOptions{}.eval;
  Samples rounds, facts, decode;
  for (size_t l = 0; l < kLevels.size(); ++l) {
    const std::string& level = kLevels[l];
    Result<Engine> engine = Engine::FromSource(source);
    if (!engine.ok()) return;
    // One parent span per level; the request id is the level's index.
    ScopedSpan parent(tracer, "layers.cold_level", -1, static_cast<int64_t>(l));
    const int64_t reduce = tracer->Begin("multilog.Reduce", parent.id());
    Result<ml::ReducedProgram> rp = ml::Reduce(engine->checked(), level);
    const double reduce_us = tracer->End(reduce);
    if (!rp.ok()) return;
    const int64_t prepare = tracer->Begin("datalog.PrepareProgram", parent.id());
    Result<datalog::PreparedProgram> prepared =
        datalog::PrepareProgram(rp->program, options);
    const double prepare_us = tracer->End(prepare);
    if (!prepared.ok()) return;
    datalog::EvalStats stats;
    const int64_t eval = tracer->Begin("datalog.EvaluatePrepared", parent.id());
    Result<datalog::Model> model =
        datalog::EvaluatePrepared(*prepared, {}, options, &stats);
    const double eval_us = tracer->End(eval);
    if (!model.ok()) return;
    rounds.Add(static_cast<double>(stats.iterations));
    facts.Add(static_cast<double>(model->size()));

    // The engine's own full build of the same level, on a fresh engine.
    Result<Engine> fresh = Engine::FromSource(source);
    if (!fresh.ok()) return;
    const int64_t build = tracer->Begin("multilog.ReducedModel", parent.id());
    (void)fresh->ReducedModel(level);
    const double build_us = tracer->End(build);
    decode.Add((build_us - reduce_us - prepare_us - eval_us) / 1000.0);

    Result<std::vector<ml::MlLiteral>> goal = ml::ParseMlGoal(point_goal);
    if (!goal.ok()) return;
    Result<std::vector<datalog::Literal>> generic =
        ml::TranslateGoalGeneric(*goal, level);
    if (!generic.ok()) return;
    const datalog::MagicGoalPattern pattern = datalog::ParameterizeGoal(*generic);
    const int64_t magic = tracer->Begin("datalog.magic", parent.id());
    Result<datalog::MagicPlan> plan =
        datalog::CompileMagicPlan(rp->display, pattern, options);
    if (plan.ok()) (void)datalog::ExecuteMagicPlan(*plan, pattern.params, options);
    tracer->End(magic);
  }
  SetMedian(*tracer, "multilog.Reduce", "multilog.reduce_ms", 1e-3, "ms", report);
  SetMedian(*tracer, "datalog.PrepareProgram", "datalog.prepare_ms", 1e-3, "ms",
            report);
  SetMedian(*tracer, "datalog.EvaluatePrepared", "datalog.eval_ms", 1e-3, "ms",
            report);
  SetMedian(*tracer, "multilog.ReducedModel", "multilog.model_build_ms", 1e-3,
            "ms", report);
  SetMedian(*tracer, "datalog.magic", "datalog.magic_ms", 1e-3, "ms", report);
  const auto n = static_cast<int64_t>(rounds.count());
  report->Set("datalog.eval_rounds", *rounds.Percentile(50, 0), "count", n);
  report->Set("datalog.facts_derived", *facts.Percentile(50, 0), "count", n);
  report->Set("multilog.decode_ms", *decode.Percentile(50, 0), "ms", n);
}

void WritePathLayers(const std::string& source,
                     const std::vector<multilog::storage::WalRecord>& records,
                     const std::string& storage_dir, Tracer* tracer,
                     Report* report) {
  using multilog::storage::WalRecordType;
  // Storage: every acknowledged write appended unsynced, then synced
  // alone - append and fsync timed apart.
  {
    Result<multilog::storage::Storage> storage =
        multilog::storage::Storage::Open(storage_dir, source);
    if (!storage.ok()) return;
    for (const auto& r : records) {
      const int64_t append = tracer->Begin("storage.Append");
      const bool ok =
          (r.type == WalRecordType::kRetract
               ? storage->AppendRetract(r.level, r.fact, /*sync=*/false)
               : storage->AppendAssert(r.level, r.fact, /*sync=*/false))
              .ok();
      tracer->End(append);
      if (!ok) break;
      ScopedSpan sync(tracer, "storage.SyncTo");
      (void)storage->SyncTo(storage->last_append_ticket());
    }
  }
  SetMedian(*tracer, "storage.Append", "storage.append_us", 1, "us", report);
  SetMedian(*tracer, "storage.SyncTo", "storage.sync_ms", 1e-3, "ms", report);

  // The engine replays one assert/retract pair per writer level with
  // every level cached, as the primary holds them.
  std::vector<multilog::storage::WalRecord> sample;
  std::vector<std::string> levels_seen;
  for (const auto& r : records) {
    if (r.type != WalRecordType::kAssert ||
        std::find(levels_seen.begin(), levels_seen.end(), r.level) !=
            levels_seen.end()) {
      continue;
    }
    levels_seen.push_back(r.level);
    sample.push_back(r);
    multilog::storage::WalRecord retract = r;
    retract.type = WalRecordType::kRetract;
    sample.push_back(retract);
  }
  const datalog::EvalOptions options = ml::EngineOptions{}.eval;
  {
    Result<Engine> engine = Engine::FromSource(source);
    if (!engine.ok()) return;
    for (const std::string& level : kLevels) (void)engine->ReducedModel(level);
    for (const auto& r : sample) {
      const bool retract = r.type == WalRecordType::kRetract;
      ScopedSpan span(tracer, retract ? "multilog.Retract" : "multilog.Assert");
      (void)(retract ? engine->Retract(r.fact, r.level)
                     : engine->Assert(r.fact, r.level));
    }
  }
  SetMedian(*tracer, "multilog.Assert", "multilog.assert_ms", 1e-3, "ms", report);
  SetMedian(*tracer, "multilog.Retract", "multilog.retract_ms", 1e-3, "ms",
            report);

  // The delta path by hand on the top level's encoded model: splice the
  // translated fact and propagate it (then take it out again).
  {
    Result<Engine> engine = Engine::FromSource(source);
    if (!engine.ok()) return;
    const std::string level = kLevels.back();
    Result<ml::ReducedProgram> rp = ml::Reduce(engine->checked(), level);
    if (!rp.ok()) return;
    {
      ScopedSpan span(tracer, "datalog.PrepareProgram");
      (void)datalog::PrepareProgram(rp->program, options);
    }
    Result<datalog::Model> model = datalog::Evaluate(rp->program, options);
    if (!model.ok()) return;
    for (const auto& r : sample) {
      if (r.type != WalRecordType::kAssert) continue;
      Result<ml::Database> db = ml::ParseMultiLog(r.fact);
      if (!db.ok() || db->sigma.empty()) continue;
      {
        ScopedSpan span(tracer, "datalog.apply_delta");
        Result<ml::SigmaFactDelta> delta = ml::TranslateSigmaFact(db->sigma[0], *rp);
        if (!delta.ok()) continue;
        ml::AppendSigmaFact(&*rp, *delta);
        (void)datalog::ApplyDelta(rp->program, delta->edb, {}, &*model, options);
      }
      ScopedSpan span(tracer, "datalog.apply_delta");
      Result<ml::SigmaFactDelta> delta = ml::TranslateSigmaFact(db->sigma[0], *rp);
      if (!delta.ok()) continue;
      ml::EraseSigmaFact(&*rp, rp->sigma_display_counts.size() - 1);
      (void)datalog::ApplyDelta(rp->program, {}, delta->edb, &*model, options);
    }
  }
  SetMedian(*tracer, "datalog.PrepareProgram", "datalog.prepare_ms", 1e-3, "ms",
            report);
  SetMedian(*tracer, "datalog.apply_delta", "datalog.apply_delta_ms", 1e-3, "ms",
            report);

  // Replication: the sample applied into an engine with one warm level.
  {
    Result<Engine> engine = Engine::FromSource(source);
    if (!engine.ok()) return;
    (void)engine->ReducedModel(kLevels.back());
    uint64_t seqno = engine->AppliedSeqno();
    for (auto r : sample) {
      r.seqno = ++seqno;
      ScopedSpan span(tracer, "replication.ApplyReplicated");
      (void)engine->ApplyReplicated(r);
    }
  }
  SetMedian(*tracer, "replication.ApplyReplicated", "replication.apply_ms", 1e-3,
            "ms", report);
}

void RoutingLayers(const std::string& source, const Window& window,
                   size_t shards, Tracer* tracer, Report* report) {
  Result<ml::Database> db = ml::ParseMultiLog(source);
  if (!db.ok()) return;
  Result<multilog::sharding::RoutingAnalysis> taint =
      multilog::sharding::RoutingAnalysis::Analyze(*db);
  if (!taint.ok()) return;
  const multilog::sharding::ShardMap map(shards);
  for (int round = 0; round < 8; ++round) {
    for (const auto* goals : {&window.point_goals, &window.wide_goals}) {
      for (const auto& [level, goal] : *goals) {
        Result<std::vector<ml::MlLiteral>> parsed = ml::ParseMlGoal(goal);
        if (!parsed.ok()) continue;
        ScopedSpan span(tracer, "sharding.RouteGoal");
        (void)multilog::sharding::RouteGoal(*parsed, *taint, map);
      }
    }
  }
  SetMedian(*tracer, "sharding.RouteGoal", "sharding.route_us", 1, "us", report);
}

}  // namespace perfbench

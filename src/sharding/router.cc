#include "sharding/router.h"

#include <set>

#include "multilog/parser.h"

namespace multilog::sharding {

namespace {

using server::ErrorResponse;
using server::ExecModeName;
using server::Json;
using server::OkResponse;
using server::Request;

Json ElapsedMs(uint64_t micros) {
  return Json::Double(static_cast<double>(micros) / 1000.0);
}

}  // namespace

Result<std::unique_ptr<Router>> Router::Create(std::string_view db_source,
                                               RouterOptions options) {
  if (options.shards.empty()) {
    return Status::InvalidArgument("a router needs at least one shard");
  }
  MULTILOG_ASSIGN_OR_RETURN(ml::Database db, ml::ParseMultiLog(db_source));
  MULTILOG_ASSIGN_OR_RETURN(ml::CheckedDatabase cdb,
                            ml::CheckDatabase(std::move(db)));
  std::unique_ptr<Router> router(new Router(std::move(options)));
  MULTILOG_ASSIGN_OR_RETURN(router->analysis_,
                            RoutingAnalysis::Analyze(cdb.db));
  router->lattice_ = std::move(cdb.lattice);
  return router;
}

RouterCounters Router::Counters() const {
  RouterCounters c;
  c.point_queries = point_queries_.load(std::memory_order_relaxed);
  c.scatter_queries = scatter_queries_.load(std::memory_order_relaxed);
  c.anywhere_queries = anywhere_queries_.load(std::memory_order_relaxed);
  c.refused_queries = refused_queries_.load(std::memory_order_relaxed);
  c.writes_routed = writes_routed_.load(std::memory_order_relaxed);
  c.checkpoint_fanouts = checkpoint_fanouts_.load(std::memory_order_relaxed);
  c.shard_errors = shard_errors_.load(std::memory_order_relaxed);
  return c;
}

Status Router::ShardUnavailable(size_t shard, const Status& cause) const {
  const ShardEndpoint& ep = options_.shards[shard];
  return Status::Unavailable("shard " + std::to_string(shard) + " (" +
                             ep.host + ":" + std::to_string(ep.port) +
                             ") is unavailable: " + cause.message());
}

Result<RoutePlan> Router::Plan(const Request& req, ml::ExecMode session_mode,
                               int64_t default_deadline_ms) {
  RoutePlan plan;
  plan.request = Json::Object();
  switch (req.cmd) {
    case Request::Cmd::kSql:
      return Status::InvalidArgument(
          "the router does not serve 'sql'; connect to a shard directly");
    case Request::Cmd::kCheckpoint:
      checkpoint_fanouts_.fetch_add(1, std::memory_order_relaxed);
      plan.kind = RoutePlan::Kind::kFanOut;
      for (size_t i = 0; i < options_.shards.size(); ++i) {
        plan.shards.push_back(i);
      }
      plan.request.Set("cmd", Json::Str("checkpoint"));
      return plan;
    case Request::Cmd::kAssert:
    case Request::Cmd::kRetract: {
      // The fact's entity key names its owner. The shard re-validates
      // everything (clearance pinning, Definition 5.4) - the router
      // only decides *where*, never *whether*.
      MULTILOG_ASSIGN_OR_RETURN(std::string key,
                                ml::RoutingKeyOfFact(req.fact));
      writes_routed_.fetch_add(1, std::memory_order_relaxed);
      plan.shards.push_back(map_.ShardOfKeyText(key));
      plan.request.Set("cmd", Json::Str(req.cmd == Request::Cmd::kRetract
                                            ? "retract"
                                            : "assert"));
      plan.request.Set("fact", Json::Str(req.fact));
      return plan;
    }
    default:
      break;
  }

  Result<std::vector<ml::MlLiteral>> goal = ml::ParseMlGoal(req.goal);
  if (!goal.ok()) {
    refused_queries_.fetch_add(1, std::memory_order_relaxed);
    return goal.status();
  }
  Result<RouteDecision> route = RouteGoal(*goal, analysis_, map_);
  if (!route.ok()) {
    refused_queries_.fetch_add(1, std::memory_order_relaxed);
    return route.status();
  }
  switch (route->kind) {
    case RouteDecision::Kind::kPoint:
      point_queries_.fetch_add(1, std::memory_order_relaxed);
      plan.shards.push_back(route->shard);
      break;
    case RouteDecision::Kind::kAnywhere:
      anywhere_queries_.fetch_add(1, std::memory_order_relaxed);
      plan.shards.push_back(
          round_robin_.fetch_add(1, std::memory_order_relaxed) %
          options_.shards.size());
      break;
    case RouteDecision::Kind::kScatter:
      if (req.want_proofs) {
        refused_queries_.fetch_add(1, std::memory_order_relaxed);
        return Status::InvalidArgument(
            "proof trees are not available for scatter-gather queries; "
            "bind the entity key for a single-shard proof");
      }
      scatter_queries_.fetch_add(1, std::memory_order_relaxed);
      plan.kind = RoutePlan::Kind::kScatter;
      for (size_t i = 0; i < options_.shards.size(); ++i) {
        plan.shards.push_back(i);
      }
      break;
  }

  // The forwarded request pins the effective mode and deadline so the
  // shard's defaults can never disagree with the router's session.
  const ml::ExecMode mode = req.mode.has_value() ? *req.mode : session_mode;
  Json& fwd = plan.request;
  fwd.Set("cmd", Json::Str("query"));
  fwd.Set("goal", Json::Str(req.goal));
  fwd.Set("mode", Json::Str(ExecModeName(mode)));
  const int64_t deadline_ms =
      req.deadline_ms >= 0
          ? req.deadline_ms
          : (default_deadline_ms > 0 ? default_deadline_ms : -1);
  if (deadline_ms >= 0) fwd.Set("deadline_ms", Json::Int(deadline_ms));
  if (req.want_proofs) fwd.Set("proofs", Json::Bool(true));
  if (req.want_trace) fwd.Set("trace", Json::Bool(true));
  if (req.min_seqno > 0) {
    fwd.Set("min_seqno", Json::Int(static_cast<int64_t>(req.min_seqno)));
    if (req.wait_ms > 0) fwd.Set("wait_ms", Json::Int(req.wait_ms));
  }
  return plan;
}

Json Router::Merge(const RoutePlan& plan, std::vector<Result<Json>> responses,
                   const std::string& level, uint64_t elapsed_micros) {
  // Failures first, deterministically by shard index: a transport
  // failure is kUnavailable naming the shard; a shard's own structured
  // error (deadline, security...) is relayed as-is.
  for (size_t i = 0; i < responses.size(); ++i) {
    if (!responses[i].ok()) {
      shard_errors_.fetch_add(1, std::memory_order_relaxed);
      return ErrorResponse(
          ShardUnavailable(plan.shards[i], responses[i].status()));
    }
    if (plan.kind == RoutePlan::Kind::kRelay ||
        !responses[i]->GetBool("ok", false)) {
      Json resp = std::move(*responses[i]);
      resp.Set("shard", Json::Int(static_cast<int64_t>(plan.shards[i])));
      return resp;
    }
  }

  Json resp = OkResponse();
  if (plan.kind == RoutePlan::Kind::kFanOut) {
    resp.Set("level", Json::Str(level));
    resp.Set("shards", Json::Int(static_cast<int64_t>(responses.size())));
    resp.Set("elapsed_ms", ElapsedMs(elapsed_micros));
    return resp;
  }

  // Deterministic merge: the global ordered union over the decoded
  // answer tuples. Each shard's reduced-mode answers arrive sorted by
  // their canonical rendering and keys are disjoint across shards, so
  // the sorted, deduplicated union is byte-identical to a single
  // engine's answer list.
  std::set<std::string> merged;
  for (size_t i = 0; i < responses.size(); ++i) {
    const Json* answers = responses[i]->Find("answers");
    if (answers == nullptr || !answers->is_array()) {
      return ErrorResponse(Status::Internal(
          "shard " + std::to_string(plan.shards[i]) +
          " returned no answer array"));
    }
    for (const Json& answer : answers->array_items()) {
      if (answer.is_string()) merged.insert(answer.string_value());
    }
  }
  resp.Set("level", Json::Str(responses[0]->GetString("level")));
  resp.Set("mode", Json::Str(responses[0]->GetString("mode")));
  Json answers = Json::Array();
  for (const std::string& answer : merged) answers.Push(Json::Str(answer));
  resp.Set("count", Json::Int(static_cast<int64_t>(merged.size())));
  resp.Set("answers", std::move(answers));
  resp.Set("elapsed_ms", ElapsedMs(elapsed_micros));
  resp.Set("shards", Json::Int(static_cast<int64_t>(responses.size())));
  return resp;
}

Json Router::ShardMapJson() const {
  Json map = Json::Object();
  map.Set("version", Json::Int(static_cast<int64_t>(map_.version())));
  map.Set("num_shards", Json::Int(static_cast<int64_t>(map_.num_shards())));
  map.Set("hash", Json::Str(kShardHashName));
  Json shards = Json::Array();
  for (const ShardEndpoint& ep : options_.shards) {
    Json shard = Json::Object();
    shard.Set("host", Json::Str(ep.host));
    shard.Set("port", Json::Int(ep.port));
    shards.Push(std::move(shard));
  }
  map.Set("shards", std::move(shards));
  return map;
}

void Router::AddStats(Json* stats) const {
  const RouterCounters c = Counters();
  stats->Set("server", Json::Str("multilog-router"));
  Json routing = Json::Object();
  routing.Set("point_queries",
              Json::Int(static_cast<int64_t>(c.point_queries)));
  routing.Set("scatter_queries",
              Json::Int(static_cast<int64_t>(c.scatter_queries)));
  routing.Set("anywhere_queries",
              Json::Int(static_cast<int64_t>(c.anywhere_queries)));
  routing.Set("refused_queries",
              Json::Int(static_cast<int64_t>(c.refused_queries)));
  routing.Set("writes_routed",
              Json::Int(static_cast<int64_t>(c.writes_routed)));
  routing.Set("checkpoint_fanouts",
              Json::Int(static_cast<int64_t>(c.checkpoint_fanouts)));
  routing.Set("shard_errors",
              Json::Int(static_cast<int64_t>(c.shard_errors)));
  stats->Set("routing", std::move(routing));
  stats->Set("shardmap", ShardMapJson());
}

std::string Router::MetricsText() const {
  const RouterCounters c = Counters();
  std::string out;
  auto counter = [&out](const char* name, const char* help, uint64_t value,
                        const char* type = "counter") {
    out.append("# HELP ").append(name).append(" ").append(help).append("\n");
    out.append("# TYPE ").append(name).append(" ").append(type).append("\n");
    out.append(name).append(" ").append(std::to_string(value)).append("\n");
  };
  counter("multilog_router_shards", "Shards in the serving map.",
          options_.shards.size(), "gauge");
  counter("multilog_router_point_queries_total",
          "Queries routed to a single owning shard.", c.point_queries);
  counter("multilog_router_scatter_queries_total",
          "Queries scatter-gathered across every shard.", c.scatter_queries);
  counter("multilog_router_anywhere_queries_total",
          "Key-free queries served round-robin by one shard.",
          c.anywhere_queries);
  counter("multilog_router_refused_queries_total",
          "Goals refused as unroutable (cross-shard joins, tainted "
          "predicates).",
          c.refused_queries);
  counter("multilog_router_writes_routed_total",
          "Asserts/retracts routed to their key's owner.", c.writes_routed);
  counter("multilog_router_checkpoint_fanouts_total",
          "Checkpoints fanned out to every shard.", c.checkpoint_fanouts);
  counter("multilog_router_shard_errors_total",
          "Transport failures talking to shards.", c.shard_errors);
  return out;
}

}  // namespace multilog::sharding

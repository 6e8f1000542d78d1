#ifndef MULTILOG_SHARDING_ROUTER_H_
#define MULTILOG_SHARDING_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "lattice/lattice.h"
#include "multilog/engine.h"
#include "server/protocol.h"
#include "sharding/routing.h"
#include "sharding/shard_map.h"

namespace multilog::sharding {

/// One engine shard the router fans out to.
struct ShardEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct RouterOptions {
  /// The shard fleet, indexed by shard id (ShardMap::ShardOfKey).
  std::vector<ShardEndpoint> shards;
};

/// Observability snapshot for the router's stats/metrics surface.
struct RouterCounters {
  uint64_t point_queries = 0;
  uint64_t scatter_queries = 0;
  uint64_t anywhere_queries = 0;
  uint64_t refused_queries = 0;  // unroutable goals (cross-shard joins...)
  uint64_t writes_routed = 0;
  uint64_t checkpoint_fanouts = 0;
  uint64_t shard_errors = 0;  // transport failures talking to shards
};

/// How one client request executes on the shard fleet: the request
/// forwarded to every target shard, and how their answers combine.
struct RoutePlan {
  enum class Kind {
    /// One target; its response is relayed verbatim plus "shard".
    kRelay,
    /// Every shard answers over its own keys; Merge returns the ordered
    /// union of the decoded answers.
    kScatter,
    /// Every shard runs the command (checkpoint); Merge reports success
    /// or the first failure by shard index.
    kFanOut,
  };
  Kind kind = Kind::kRelay;
  std::vector<size_t> shards;
  /// The forwarded request, without a pipelining `id` (the transport
  /// tags each copy with its own).
  server::Json request;
};

/// # multilog-router: the scatter-gather decisions over N shards
///
/// The router is socket-free: `server::Server` built over a Router
/// (multilogd --router) owns the client sessions and one shard link per
/// (shard, clearance) on its event loop (DESIGN.md §17). The Router
/// decides where each request goes and how the shards' answers combine.
///
/// Clients speak the exact multilogd wire protocol; `sql` and
/// `replicate` are refused (shards own those). HELLO binds {clearance,
/// mode} against the *same* database lattice the shards serve, and each
/// shard link is hello'd at the session's clearance - the shard
/// re-enforces per-level visibility exactly as if the client had
/// connected to it directly, so the router adds no trusted surface.
///
///  - Point queries (one ground entity key) go to the owning shard and
///    its response is relayed verbatim plus a "shard" member: byte-
///    identical answers in every mode, because the owner holds the
///    key's complete group (see routing.h).
///  - Wide queries (one shared non-ground key term) scatter to every
///    shard and return the deterministic ordered union of the decoded
///    answers - the same sorted, deduplicated order the reduced
///    semantics produces on a single engine, so reduced-mode answers
///    are byte-identical. (Operational proof *order* is an enumeration
///    artifact; the answer set is identical, served sorted.) Proof
///    trees are refused on scatter.
///  - Key-free goals route round-robin to any single shard (each holds
///    all of Lambda and Pi).
///  - Assert/Retract route to the written key's owner; Checkpoint fans
///    out to every shard.
///
/// `deadline_ms`, `min_seqno`/`wait_ms`, proofs and trace are forwarded
/// per shard. A shard that cannot be reached - or dies mid-query -
/// yields kUnavailable naming the shard, never a silently truncated
/// answer. The `shardmap` command serves the versioned map (hash name,
/// shard count, endpoints) to routing-aware clients.
class Router {
 public:
  /// `db_source` is the same MultiLog source the shards were seeded
  /// from: it is parsed and checked for the lattice (HELLO validation)
  /// and the routing analysis, but never evaluated. Fails when the
  /// database is invalid or unshardable, or there are no shards.
  static Result<std::unique_ptr<Router>> Create(std::string_view db_source,
                                                RouterOptions options);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  const lattice::SecurityLattice& lattice() const { return lattice_; }
  const ShardMap& shard_map() const { return map_; }
  const std::vector<ShardEndpoint>& shards() const { return options_.shards; }
  RouterCounters Counters() const;

  /// Decides where a query/sql/write request goes. `session_mode` and
  /// `default_deadline_ms` (0 = none) are pinned into the forwarded
  /// query so a shard's defaults never disagree with the router's
  /// session. Refusals (unroutable goals, proofs on scatter, `sql`)
  /// come back as the error status.
  Result<RoutePlan> Plan(const server::Request& req, ml::ExecMode session_mode,
                         int64_t default_deadline_ms);

  /// Combines the shards' responses, one per `plan.shards` entry in the
  /// same order; a non-OK entry is a transport failure talking to that
  /// shard. Failures come first, by shard index: a transport failure is
  /// kUnavailable naming the shard, a shard's own structured error is
  /// relayed with its "shard". `level` is the session clearance and
  /// `elapsed_micros` the router-side wall time of the request.
  server::Json Merge(const RoutePlan& plan,
                     std::vector<Result<server::Json>> responses,
                     const std::string& level, uint64_t elapsed_micros);

  server::Json ShardMapJson() const;
  /// Adds the router's identity, "routing" counters and "shardmap" to a
  /// stats payload.
  void AddStats(server::Json* stats) const;
  /// The multilog_router_* Prometheus families.
  std::string MetricsText() const;

 private:
  explicit Router(RouterOptions options)
      : options_(std::move(options)), map_(options_.shards.size()) {}

  /// A transport-level failure talking to `shard`, as kUnavailable
  /// naming it.
  Status ShardUnavailable(size_t shard, const Status& cause) const;

  RouterOptions options_;
  ShardMap map_;
  RoutingAnalysis analysis_;
  lattice::SecurityLattice lattice_;

  // Written on the serving loop, read by stats/metrics on a worker.
  std::atomic<uint64_t> point_queries_{0};
  std::atomic<uint64_t> scatter_queries_{0};
  std::atomic<uint64_t> anywhere_queries_{0};
  std::atomic<uint64_t> refused_queries_{0};
  std::atomic<uint64_t> writes_routed_{0};
  std::atomic<uint64_t> checkpoint_fanouts_{0};
  std::atomic<uint64_t> shard_errors_{0};
  std::atomic<uint64_t> round_robin_{0};
};

}  // namespace multilog::sharding

#endif  // MULTILOG_SHARDING_ROUTER_H_

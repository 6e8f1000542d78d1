#include "workloads.h"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "layers.h"
#include "multilog/engine.h"
#include "server/client.h"
#include "sharding/routing.h"
#include "sharding/shard_map.h"
#include "storage/storage.h"

namespace perfbench {

using multilog::Result;
using multilog::ml::Engine;
using multilog::server::Client;
using multilog::server::Json;
namespace fs = std::filesystem;

void Report::Set(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::Diverge(const std::string& what) {
  ++divergences_;
  if (notes_.size() < 20) notes_.push_back(what);
}

namespace {

// Read mix sizes: each connection replays its own seeded sequence of
// kOpsPerConn reads, cyclically.
constexpr size_t kOpsPerConn = 8192;
// Every kWideEvery-th op of the read mix is a wide read (0.3%): rare
// enough not to set read_qps, common enough for the wide median. Fixed
// positions keep every level's share of wide reads the same for every
// seed (a prime, so the modes still cycle over them).
constexpr size_t kWideEvery = 331;
// Zipf exponent of the point-read key popularity.
constexpr double kKeySkew = 0.9;
// Requests in flight per read_serve connection.
constexpr size_t kPipelineDepth = 4;
// Every kTraceEvery-th query of a traced window asks for the server's
// own span tree.
constexpr size_t kTraceEvery = 16;
// Links in cold_build's reach chain, and the node every cold point
// query starts from: a magic plan's cost grows with the square of the
// chain left below the start, so a fixed start keeps it one workload.
constexpr size_t kLinks = 128;
constexpr size_t kReachFrom = kLinks / 2;
// Shards behind the router.
constexpr size_t kShards = 2;
// Request texts kept for the parse replay.
constexpr size_t kKeptRequests = 4096;

/// The answer bytes of a query response's "answers" member, exactly as
/// the wire carries them.
std::string AnswerBytes(const Result<multilog::ml::QueryResult>& r) {
  if (!r.ok()) return "!" + r.status().ToString();
  Json answers = Json::Array();
  for (const auto& a : r->answers) answers.Push(Json::Str(a.ToString()));
  return answers.Serialize();
}

std::string Expected(Engine& engine, const std::string& goal,
                     const std::string& level) {
  return AnswerBytes(engine.QuerySource(goal, level));
}

enum class Outcome { kOk, kFailed, kDiverged };

/// Classifies one response against the expected answer bytes.
Outcome Classify(const Result<Json>& r, const std::string& expected,
                 std::string* got) {
  if (!r.ok()) {
    *got = r.status().ToString();
    return Outcome::kFailed;
  }
  if (!r->GetBool("ok")) {
    *got = r->Serialize();
    return Outcome::kFailed;
  }
  const Json* answers = r->Find("answers");
  *got = answers != nullptr ? answers->Serialize() : r->Serialize();
  return *got == expected ? Outcome::kOk : Outcome::kDiverged;
}

Json QueryRequest(const std::string& goal, int64_t id, bool trace,
                  uint64_t min_seqno = 0, int64_t wait_ms = 0) {
  Json req = Json::Object();
  req.Set("cmd", Json::Str("query"));
  req.Set("goal", Json::Str(goal));
  if (id >= 0) req.Set("id", Json::Int(id));
  if (trace) req.Set("trace", Json::Bool(true));
  if (min_seqno > 0) {
    req.Set("min_seqno", Json::Int(static_cast<int64_t>(min_seqno)));
    req.Set("wait_ms", Json::Int(wait_ms));
  }
  return req;
}

Json WriteRequest(const char* cmd, const std::string& fact) {
  Json req = Json::Object();
  req.Set("cmd", Json::Str(cmd));
  req.Set("fact", Json::Str(fact));
  return req;
}

/// Per-thread accumulation, merged into the Window at the end.
struct ThreadOut {
  Samples read, wide, assert_, retract, lag, queue_wait;
  Samples serialize_wide, serialize_point;
  uint64_t reads_done = 0, writes_done = 0, attempted = 0, failed = 0;
  std::vector<std::string> requests;
  std::vector<std::string> divergences;
  void Merge(Window* w, Report* report) {
    w->read.Append(read);
    w->wide.Append(wide);
    w->writes_assert.Append(assert_);
    w->writes_retract.Append(retract);
    w->lag.Append(lag);
    w->queue_wait_us.Append(queue_wait);
    w->serialize_wide_us.Append(serialize_wide);
    w->serialize_point_us.Append(serialize_point);
    w->reads_done += reads_done;
    w->writes_done += writes_done;
    w->attempted += attempted;
    w->failed += failed;
    for (std::string& r : requests) {
      if (w->request_texts.size() < kKeptRequests) {
        w->request_texts.push_back(std::move(r));
      }
    }
    for (const std::string& d : divergences) report->Diverge(d);
  }
};

/// Scores one answered request into `out`; returns false on failure.
bool Score(const Result<Json>& r, const std::string& expected,
           const std::string& level, const std::string& goal, ThreadOut* out) {
  std::string got;
  switch (Classify(r, expected, &got)) {
    case Outcome::kOk:
      return true;
    case Outcome::kFailed:
      ++out->failed;
      return false;
    case Outcome::kDiverged:
      out->divergences.push_back(level + " " + goal + ": expected " +
                                 expected.substr(0, 200) +
                                 " got " + got.substr(0, 200));
      return false;
  }
  return false;
}

/// Files the server's own span tree of a traced response under the
/// client span that sent it - its stages offset from the client's send,
/// as the two processes share no clock origin - and keeps its queue_wait
/// and serialize stages.
void NoteServerSpans(const Result<Json>& r, bool wide, Tracer* tracer,
                     int64_t span, ThreadOut* out) {
  const Json* tree = r.ok() ? r->Find("trace") : nullptr;
  if (tree == nullptr) return;
  if (const Json* stages = tree->Find("children")) {
    for (const Json& stage : stages->array_items()) {
      tracer->Child(span, "multilogd." + stage.GetString("stage"),
                    static_cast<double>(stage.GetInt("start_us")),
                    static_cast<double>(stage.GetInt("dur_us")));
    }
  }
  const double us = TraceStageUs(*tree, "queue_wait");
  if (us >= 0) out->queue_wait.Add(us);
  const double ser = TraceStageUs(*tree, "serialize");
  if (ser >= 0) (wide ? out->serialize_wide : out->serialize_point).Add(ser);
}

// ---------------------------------------------------------------------
// The read mix shared by read_serve and routed.

struct ReadOp {
  bool wide = false;
  std::string goal;
  std::string expected;
};

/// One seeded op sequence per connection (connection i is a session at
/// kLevels[i]): skewed point reads cycling fir/opt/cau, plus rare wide
/// reads binding the value cell.
std::vector<std::vector<ReadOp>> BuildReadMix(const Sigma& sigma,
                                              uint64_t seed) {
  const size_t n = sigma.keys.size();
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kKeySkew);
    cdf[r] = total;
  }
  Rng rng(seed ^ 0x5eed0f0adULL);
  // Popularity rank -> key, so hot keys are spread over the levels.
  std::vector<size_t> key_of_rank(n);
  for (size_t i = 0; i < n; ++i) key_of_rank[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(key_of_rank[i - 1], key_of_rank[rng.Below(i)]);

  std::vector<std::vector<ReadOp>> mix(kLevels.size());
  for (size_t c = 0; c < kLevels.size(); ++c) {
    const std::string& level = kLevels[c];
    for (size_t i = 0; i < kOpsPerConn; ++i) {
      ReadOp op;
      const std::string& mode = kModes[i % kModes.size()];
      if (i % kWideEvery == kWideEvery - 1) {
        op.wide = true;
        op.goal = WideGoal(level, "v" + std::to_string(i / kWideEvery % kValues),
                           mode);
      } else {
        const double u = rng.Unit() * total;
        const size_t rank = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        op.goal = PointGoal(level, sigma.keys[key_of_rank[std::min(rank, n - 1)]],
                            mode);
      }
      mix[c].push_back(std::move(op));
    }
  }
  return mix;
}

/// Fills every op's expected answer bytes from one in-process reference
/// engine over the unsplit Sigma_0, one thread per level.
bool ComputeExpected(const std::string& source,
                     std::vector<std::vector<ReadOp>>* mix, Report* report) {
  Result<Engine> reference = Engine::FromSource(source);
  if (!reference.ok()) {
    report->Diverge("reference engine: " + reference.status().ToString());
    return false;
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < mix->size(); ++c) {
    threads.emplace_back([&, c] {
      std::unordered_map<std::string, std::string> memo;
      for (ReadOp& op : (*mix)[c]) {
        auto it = memo.find(op.goal);
        if (it == memo.end()) {
          it = memo.emplace(op.goal, Expected(*reference, op.goal, kLevels[c]))
                   .first;
        }
        op.expected = it->second;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return true;
}

/// Replays `ops` cyclically on one session until `deadline`, keeping
/// `depth` requests in flight. Pipelined requests carry an id; a lone
/// request in flight needs none (and the router does not echo ids).
void ReadLoop(uint16_t port, const std::string& level,
              const std::vector<ReadOp>& ops, size_t depth,
              Clock::time_point deadline, Tracer* tracer, ThreadOut* out) {
  Result<Client> client = Session(port, level);
  if (!client.ok()) {
    ++out->attempted;
    ++out->failed;
    return;
  }
  struct InFlight {
    Clock::time_point sent;
    size_t op;
    int64_t span;
  };
  std::unordered_map<int64_t, InFlight> in_flight;
  size_t next = 0;
  int64_t next_id = 0;
  const bool tagged = depth > 1;

  auto send = [&]() -> bool {
    const size_t i = next++ % ops.size();
    const int64_t id = next_id++;
    // Every wide read of a traced window asks too: they are too rare
    // for the sample to hold enough of them.
    const bool trace =
        tracer != nullptr && (i % kTraceEvery == 0 || ops[i].wide);
    const std::string text =
        QueryRequest(ops[i].goal, tagged ? id : -1, trace).Serialize();
    if (out->requests.size() < kKeptRequests / kLevels.size()) {
      out->requests.push_back(text);
    }
    InFlight f{Clock::now(), i, -1};
    if (tracer != nullptr) {
      f.span = tracer->Begin(ops[i].wide ? "client.wide" : "client.read", -1, id);
    }
    ++out->attempted;
    if (!client->SendRaw(text).ok()) {
      ++out->failed;
      return false;
    }
    in_flight.emplace(tagged ? id : -1, f);
    return true;
  };
  for (size_t i = 0; i < depth; ++i) {
    if (!send()) return;
  }
  while (!in_flight.empty()) {
    const Result<Json> r = client->ReadResponse();
    if (!r.ok()) {
      out->failed += in_flight.size();
      return;
    }
    const auto it = in_flight.find(tagged ? r->GetInt("id", -1) : -1);
    if (it == in_flight.end()) {
      out->divergences.push_back("response with unknown id: " +
                                 r->Serialize().substr(0, 200));
      return;
    }
    const InFlight f = it->second;
    in_flight.erase(it);
    const double ms = MsSince(f.sent);
    if (tracer != nullptr) {
      tracer->End(f.span);
      NoteServerSpans(r, ops[f.op].wide, tracer, f.span, out);
    }
    const ReadOp& op = ops[f.op];
    if (Score(r, op.expected, level, op.goal, out)) {
      if (op.wide) {
        out->wide.Add(ms);
      } else {
        out->read.Add(ms);
        ++out->reads_done;
      }
    }
    if (Clock::now() < deadline && !send()) return;
  }
}

void Collect(std::vector<ThreadOut>& outs, Window* window, Report* report,
             const std::vector<std::vector<ReadOp>>* mix) {
  for (ThreadOut& o : outs) o.Merge(window, report);
  if (mix == nullptr) return;
  // The first 64 goals of each kind per connection, for the replays.
  for (size_t c = 0; c < mix->size(); ++c) {
    size_t points = 0, wides = 0;
    for (const ReadOp& op : (*mix)[c]) {
      size_t& taken = op.wide ? wides : points;
      if (taken++ < 64) {
        (op.wide ? window->wide_goals : window->point_goals)
            .emplace_back(kLevels[c], op.goal);
      }
    }
  }
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

/// Warms every level of the daemon on `port` concurrently, one session
/// per level, with a wide read (a full model build; belief goals never
/// take the magic path). Returns false when any warm-up fails.
bool WarmLevels(uint16_t port, const std::vector<std::string>& levels,
                const std::string& goal_value) {
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (const std::string& level : levels) {
    threads.emplace_back([&, level] {
      Result<Client> c = Session(port, level);
      Result<Json> r = c.ok() ? c->Query(WideGoal(level, goal_value, "cau"))
                              : Result<Json>(c.status());
      if (!r.ok()) ok = false;
    });
  }
  for (std::thread& t : threads) t.join();
  return ok;
}

/// Warms all four levels of `daemon`: concurrently, or - in a traced
/// run - one level at a time, reading the RSS each level adds.
bool WarmAllLevels(const Daemon& daemon, bool per_level_rss, Report* report) {
  if (!per_level_rss) {
    if (WarmLevels(daemon.port(), kLevels, "v0")) return true;
    report->Diverge("warm-up failed");
    return false;
  }
  double before = daemon.RssMb();
  Samples growth;
  for (const std::string& level : kLevels) {
    if (!WarmLevels(daemon.port(), {level}, "v0")) {
      report->Diverge("warm-up failed at " + level);
      return false;
    }
    const double after = daemon.RssMb();
    growth.Add(after - before);
    before = after;
  }
  report->Set("multilog.rss_per_level_mb", growth.Mean(), "MB",
              static_cast<int64_t>(growth.count()));
  return true;
}

/// server.overhead_us: the blocking wire round trip of each of the
/// window's point goals minus Engine::QuerySource of the same goal on a
/// warm in-process engine (the first round warms both sides).
void ServerOverhead(uint16_t port, const std::string& source,
                    const Window& window, Tracer* tracer, Report* report) {
  Result<Engine> engine = Engine::FromSource(source);
  if (!engine.ok()) return;
  std::map<std::string, Result<Client>> sessions;
  Samples wire, local;
  for (int round = 0; round < 3; ++round) {
    for (const auto& [level, goal] : window.point_goals) {
      auto it = sessions.find(level);
      if (it == sessions.end()) {
        it = sessions.emplace(level, Session(port, level)).first;
      }
      if (!it->second.ok()) return;
      const auto t0 = Clock::now();
      const Result<Json> r = it->second->Query(goal);
      const double wire_us = MsSince(t0) * 1000;
      const int64_t span = tracer->Begin("multilog.QuerySource");
      (void)engine->QuerySource(goal, level);
      const double local_us = tracer->End(span);
      if (round > 0 && r.ok()) {
        wire.Add(wire_us);
        local.Add(local_us);
      }
    }
  }
  const auto w = wire.Percentile(50, 0), l = local.Percentile(50, 0);
  if (w && l) {
    report->Set("server.overhead_us", *w - *l, "us",
                static_cast<int64_t>(wire.count()));
  }
}

// ---------------------------------------------------------------------

/// read_serve: one in-memory server, pipelined sessions. Routed reuses
/// it with a router in front of shards and blocking round trips.
class ReadServe : public Workload {
 public:
  explicit ReadServe(const Options& o, size_t depth = kPipelineDepth)
      : o_(o), depth_(depth) {}

  bool Prepare(Report* report) override {
    sigma_ = GenerateSigma(o_.seed, SigmaFacts(o_), 0);
    db_path_ = o_.work_dir + "/sigma.mlog";
    if (!WriteFile(db_path_, sigma_.source)) return false;
    if (!PrepareServers(report)) return false;
    mix_ = BuildReadMix(sigma_, o_.seed);
    return ComputeExpected(sigma_.source, &mix_, report);
  }

  double Setup(Report* report) override {
    const auto t0 = Clock::now();
    if (!StartServers(report)) return -1;
    return MsSince(t0) / 1000.0;
  }

  void Teardown() override {
    for (Daemon* d : Servers()) d->Stop();
  }

  void Run(double seconds, Tracer* tracer, Window* window,
           Report* report) override {
    const std::vector<Daemon*> servers = Servers();
    auto cpu_all = [&] {
      double cpu = 0;
      for (const Daemon* d : servers) cpu += d->CpuSeconds();
      return cpu;
    };
    const Json before = StatsOf(front_.port());
    const double cpu0 = cpu_all();
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<ThreadOut> outs(kLevels.size());
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kLevels.size(); ++c) {
      threads.emplace_back([&, c] {
        ReadLoop(front_.port(), kLevels[c], mix_[c], depth_, deadline, tracer,
                 &outs[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    window->seconds = MsSince(t0) / 1000.0;
    window->server_cpu_s = cpu_all() - cpu0;
    window->rss_mb = 0;
    for (const Daemon* d : servers) window->rss_mb += d->PeakRssMb();
    Collect(outs, window, report, &mix_);
    if (tracer != nullptr) WindowStats(before, StatsOf(front_.port()), report);
  }

  void Verify(Report*) override {}

  void Layers(const Window& window, Tracer* tracer, Report* report) override {
    ServerOverhead(front_.port(), sigma_.source, window, tracer, report);
    ReadPathLayers(sigma_.source, window, tracer, report);
  }

 protected:
  /// Writes any further input files (routed: the shards' partitions).
  virtual bool PrepareServers(Report*) { return true; }

  /// Starts the server and warms all four levels.
  virtual bool StartServers(Report* report) {
    std::string error;
    if (!front_.Start(o_.multilogd, {"--db", db_path_, "--port", "0"},
                      o_.work_dir + "/multilogd.log", &error)) {
      report->Diverge("start: " + error);
      return false;
    }
    return WarmAllLevels(front_, o_.trace, report);
  }

  /// Every serving process, the one the sessions talk to first; their
  /// CPU and peak RSS are summed.
  virtual std::vector<Daemon*> Servers() { return {&front_}; }

  /// Ratio metrics from the `stats` of the front process around a
  /// traced window.
  virtual void WindowStats(const Json& before, const Json& after,
                           Report* report) {
    const double hits = StatInt(after, "engine.cache_hits") -
                        StatInt(before, "engine.cache_hits");
    const double misses = StatInt(after, "engine.cache_misses") -
                          StatInt(before, "engine.cache_misses");
    if (hits + misses > 0) {
      report->Set("multilog.cache_hit_ratio", hits / (hits + misses), "ratio");
    }
  }

  Options o_;
  size_t depth_;
  Sigma sigma_;
  std::string db_path_;
  std::vector<std::vector<ReadOp>> mix_;
  Daemon front_;  // the server the sessions talk to
};

// ---------------------------------------------------------------------

/// routed: the read_serve mix through `multilogd --router` in front of
/// kShards in-memory shards, as blocking round trips (the router does
/// not echo request ids).
class Routed : public ReadServe {
 public:
  explicit Routed(const Options& o) : ReadServe(o, 1) {}

  void Layers(const Window& window, Tracer* tracer, Report* report) override {
    HopAndSkew(window, tracer, report);
    RoutingLayers(sigma_.source, window, kShards, tracer, report);
  }

 protected:
  bool PrepareServers(Report* report) override {
    Result<std::vector<std::string>> parts = multilog::sharding::PartitionSource(
        sigma_.source, multilog::sharding::ShardMap(kShards));
    if (!parts.ok()) {
      report->Diverge("partition: " + parts.status().ToString());
      return false;
    }
    for (size_t i = 0; i < parts->size(); ++i) {
      shard_paths_.push_back(o_.work_dir + "/shard" + std::to_string(i) + ".mlog");
      if (!WriteFile(shard_paths_.back(), (*parts)[i])) return false;
    }
    return true;
  }

  bool StartServers(Report* report) override {
    std::string error;
    std::string shard_list;
    shards_.clear();
    for (size_t i = 0; i < shard_paths_.size(); ++i) {
      shards_.push_back(std::make_unique<Daemon>());
      if (!shards_.back()->Start(o_.multilogd,
                                 {"--db", shard_paths_[i], "--port", "0"},
                                 o_.work_dir + "/shard" + std::to_string(i) + ".log",
                                 &error)) {
        report->Diverge("shard start: " + error);
        return false;
      }
      if (i > 0) shard_list += ",";
      shard_list += "127.0.0.1:" + std::to_string(shards_.back()->port());
    }
    if (!front_.Start(o_.multilogd,
                      {"--db", db_path_, "--router", "--shards", shard_list,
                       "--port", "0"},
                      o_.work_dir + "/router.log", &error)) {
      report->Diverge("router start: " + error);
      return false;
    }
    if (!WarmLevels(front_.port(), kLevels, "v0")) {
      report->Diverge("warm-up through the router failed");
      return false;
    }
    return true;
  }

  std::vector<Daemon*> Servers() override {
    std::vector<Daemon*> all = {&front_};
    for (auto& s : shards_) all.push_back(s.get());
    return all;
  }

  void WindowStats(const Json& before, const Json& after,
                   Report* report) override {
    report->Set("sharding.shard_errors",
                StatInt(after, "routing.shard_errors") -
                    StatInt(before, "routing.shard_errors"),
                "count");
  }

 private:
  /// sharding.hop_us (routed minus direct-to-owner round trip of the
  /// same point goals) and sharding.scatter_skew (slowest shard's direct
  /// round trip over the shards' mean, per wide goal).
  void HopAndSkew(const Window& window, Tracer* tracer, Report* report) {
    const multilog::sharding::ShardMap map(kShards);
    std::map<std::string, Result<Client>> via_router;
    std::map<std::pair<size_t, std::string>, Result<Client>> direct;
    auto session = [&](uint16_t port, auto& cache, const auto& key,
                       const std::string& level) -> Client* {
      auto it = cache.find(key);
      if (it == cache.end()) it = cache.emplace(key, Session(port, level)).first;
      return it->second.ok() ? &*it->second : nullptr;
    };
    auto timed = [&](Client* c, const std::string& goal, const char* span) {
      const int64_t id = tracer->Begin(span);
      const Result<Json> r = c->Query(goal);
      const double us = tracer->End(id);
      return r.ok() ? us : -1.0;
    };
    Samples hop;
    for (int round = 0; round < 2; ++round) {
      for (const auto& [level, goal] : window.point_goals) {
        // The key text sits between "[obj(" and " :".
        const size_t a = goal.find("[obj(") + 5;
        const std::string key = goal.substr(a, goal.find(" :", a) - a);
        const size_t owner = map.ShardOfKeyText(key);
        Client* r = session(front_.port(), via_router, level, level);
        Client* d = session(shards_[owner]->port(), direct,
                            std::make_pair(owner, level), level);
        if (r == nullptr || d == nullptr) return;
        const double routed = timed(r, goal, "client.routed_point");
        const double plain = timed(d, goal, "client.direct_point");
        if (round == 1 && routed >= 0 && plain >= 0) hop.Add(routed - plain);
      }
    }
    if (auto p = hop.Percentile(50, 0)) {
      report->Set("sharding.hop_us", *p, "us", static_cast<int64_t>(hop.count()));
    }
    Samples skew;
    for (const auto& [level, goal] : window.wide_goals) {
      std::vector<double> per_shard;
      for (size_t s = 0; s < kShards; ++s) {
        Client* d = session(shards_[s]->port(), direct, std::make_pair(s, level),
                            level);
        if (d == nullptr) return;
        per_shard.push_back(timed(d, goal, "client.direct_wide"));
      }
      double sum = 0, worst = 0;
      for (double v : per_shard) {
        sum += v;
        worst = std::max(worst, v);
      }
      if (sum > 0) skew.Add(worst / (sum / static_cast<double>(kShards)));
    }
    if (auto p = skew.Percentile(50, 0)) {
      report->Set("sharding.scatter_skew", *p, "ratio",
                  static_cast<int64_t>(skew.count()));
    }
  }

  std::vector<std::string> shard_paths_;
  std::vector<std::unique_ptr<Daemon>> shards_;
};

// ---------------------------------------------------------------------

class ColdBuild : public Workload {
 public:
  explicit ColdBuild(const Options& o) : o_(o) {}

  bool SetupPerRun() const override { return false; }

  bool Prepare(Report* report) override {
    sigma_ = GenerateSigma(o_.seed, SigmaFacts(o_), kLinks);
    db_path_ = o_.work_dir + "/sigma_reach.mlog";
    if (!WriteFile(db_path_, sigma_.source)) return false;
    Result<Engine> reference = Engine::FromSource(sigma_.source);
    if (!reference.ok()) {
      report->Diverge("reference engine: " + reference.status().ToString());
      return false;
    }
    // Every goal an iteration can send, per level.
    expected_.resize(kLevels.size());
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kLevels.size(); ++c) {
      threads.emplace_back([&, c] {
        const std::string& level = kLevels[c];
        for (int v = 0; v < kValues; ++v) {
          const std::string goal = WideGoal(level, "v" + std::to_string(v), "cau");
          expected_[c][goal] = Expected(*reference, goal, level);
        }
        const std::string goal = ReachGoal(kReachFrom);
        expected_[c][goal] = Expected(*reference, goal, level);
      });
    }
    for (std::thread& t : threads) t.join();
    return true;
  }

  double Setup(Report*) override { return 0; }
  void Teardown() override {}

  /// Iterations of: fresh daemon, first ping, then per level one cold
  /// point query and one cold wide query on four concurrent sessions.
  void Run(double seconds, Tracer* tracer, Window* window,
           Report* report) override {
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    Samples rss;
    double plan_hits = 0, plan_misses = 0;
    std::vector<ThreadOut> outs(kLevels.size());
    for (uint64_t iter = 0; iter == 0 || Clock::now() < deadline; ++iter) {
      Rng rng(o_.seed * 0x100000001b3ULL + iter);
      const std::string point = ReachGoal(kReachFrom);
      std::vector<std::string> wides;
      for (const std::string& level : kLevels) {
        wides.push_back(WideGoal(level, "v" + std::to_string(rng.Below(kValues)),
                                 "cau"));
      }
      const auto spawn = Clock::now();
      Daemon daemon;
      std::string error;
      outs[0].attempted += 1;
      if (!daemon.Start(o_.multilogd, {"--db", db_path_, "--port", "0"},
                        o_.work_dir + "/multilogd.log", &error)) {
        outs[0].failed += 1;
        report->Diverge("start: " + error);
        return;
      }
      {
        Result<Client> c = Client::ConnectWithRetry("127.0.0.1", daemon.port(),
                                                    50, 5);
        if (!c.ok() || !c->Ping().ok()) {
          outs[0].failed += 1;
          continue;
        }
      }
      window->setup.Add(MsSince(spawn) / 1000.0);
      const double cpu0 = daemon.CpuSeconds();
      // Point queries first on all four sessions, then the wide ones.
      std::barrier phase(static_cast<std::ptrdiff_t>(kLevels.size()));
      std::vector<std::thread> threads;
      for (size_t c = 0; c < kLevels.size(); ++c) {
        threads.emplace_back([&, c] {
          ThreadOut* out = &outs[c];
          const std::string& level = kLevels[c];
          Result<Client> client = Session(daemon.port(), level);
          bool alive = client.ok();
          for (int k = 0; k < 2; ++k) {
            if (k == 1) phase.arrive_and_wait();
            if (!alive) {
              ++out->attempted;
              ++out->failed;
              continue;
            }
            const std::string& goal = k == 0 ? point : wides[c];
            const bool trace = tracer != nullptr;
            const Json req = QueryRequest(goal, -1, trace);
            if (out->requests.size() < 16) out->requests.push_back(req.Serialize());
            const int64_t span =
                trace ? tracer->Begin(k == 0 ? "client.cold_point" : "client.cold_wide",
                                      -1, static_cast<int64_t>(iter * 8 + c * 2 + k))
                      : -1;
            ++out->attempted;
            const auto sent = Clock::now();
            const Result<Json> r = client->RoundTrip(req);
            const double ms = MsSince(sent);
            if (trace) {
              tracer->End(span);
              NoteServerSpans(r, k == 1, tracer, span, out);
            }
            if (Score(r, expected_[c][goal], level, goal, out)) {
              if (k == 0) {
                out->read.Add(ms);
                ++out->reads_done;
              } else {
                out->wide.Add(ms);
              }
            }
            alive = r.ok();
          }
        });
      }
      for (std::thread& t : threads) t.join();
      window->server_cpu_s += daemon.CpuSeconds() - cpu0;
      const Json stats = StatsOf(daemon.port());
      plan_hits += StatInt(stats, "engine.plan_hits");
      plan_misses += StatInt(stats, "engine.plan_misses");
      rss.Add(daemon.PeakRssMb());
      daemon.Stop();
    }
    window->seconds = MsSince(t0) / 1000.0;
    window->rss_mb = rss.Percentile(50, 0).value_or(0);
    Collect(outs, window, report, nullptr);
    window->point_goals.emplace_back("t", ReachGoal(kReachFrom));
    if (tracer != nullptr && plan_hits + plan_misses > 0) {
      report->Set("multilog.plan_hit_ratio", plan_hits / (plan_hits + plan_misses),
                  "ratio");
    }
  }

  void Verify(Report*) override {}

  void Layers(const Window&, Tracer* tracer, Report* report) override {
    ColdBuildLayers(sigma_.source, ReachGoal(kReachFrom), tracer, report);
  }

 private:
  Options o_;
  Sigma sigma_;
  std::string db_path_;
  std::vector<std::map<std::string, std::string>> expected_;
};

// ---------------------------------------------------------------------

/// One acknowledged write, as the primary numbered it.
struct AckedWrite {
  uint64_t seqno = 0;
  bool retract = false;
  std::string level;
  std::string fact;
};

class WriteChurn : public Workload {
 public:
  explicit WriteChurn(const Options& o) : o_(o) {}

  bool Prepare(Report* report) override {
    sigma_ = GenerateSigma(o_.seed, SigmaFacts(o_), 0);
    db_path_ = o_.work_dir + "/sigma.mlog";
    if (!WriteFile(db_path_, sigma_.source)) return false;
    // Read-back answers: present (per writer level) and absent. The
    // churn facts' value vw never occurs in Sigma_0, so a Sigma-free
    // reference over the same lattice and rule answers them exactly.
    Result<Engine> probe = Engine::FromSource(GenerateSigma(o_.seed, 0, 0).source);
    if (!probe.ok()) return false;
    for (size_t w = 0; w < kWriters; ++w) {
      const std::string& level = kLevels[w];
      const std::string key = "wprobe" + level;
      absent_ = Expected(*probe, PointGoal(level, key, "cau"), level);
      if (!probe->Assert(ChurnFact(level, key), level).ok()) return false;
      present_.push_back(Expected(*probe, PointGoal(level, key, "cau"), level));
      if (!probe->Retract(ChurnFact(level, key), level).ok()) return false;
    }
    // The replica reader's wide reads of Sigma_0 at its level.
    Result<Engine> reference = Engine::FromSource(sigma_.source);
    if (!reference.ok()) {
      report->Diverge("reference engine: " + reference.status().ToString());
      return false;
    }
    for (int v = 0; v < kValues; ++v) {
      const std::string goal = WideGoal(kReplicaLevel, "v" + std::to_string(v), "cau");
      replica_wide_.emplace_back(goal, Expected(*reference, goal, kReplicaLevel));
    }
    return true;
  }

  double Setup(Report* report) override {
    const auto t0 = Clock::now();
    fs::remove_all(o_.work_dir + "/primary");
    fs::remove_all(o_.work_dir + "/replica");
    std::string error;
    if (!primary_.Start(o_.multilogd,
                        {"--db", db_path_, "--data-dir", o_.work_dir + "/primary",
                         "--port", "0"},
                        o_.work_dir + "/primary.log", &error)) {
      report->Diverge("primary start: " + error);
      return -1;
    }
    if (!WarmAllLevels(primary_, o_.trace, report)) return -1;
    if (!replica_.Start(o_.multilogd,
                        {"--db", db_path_, "--data-dir", o_.work_dir + "/replica",
                         "--replica-of",
                         "127.0.0.1:" + std::to_string(primary_.port()), "--port",
                         "0"},
                        o_.work_dir + "/replica.log", &error)) {
      report->Diverge("replica start: " + error);
      return -1;
    }
    // Ready once the replica streams from the primary and its level is warm.
    for (int i = 0; i < 500; ++i) {
      const Json stats = StatsOf(replica_.port());
      const Json* conn = stats.is_object() ? stats.Find("replication") : nullptr;
      if (conn != nullptr && conn->GetBool("connected")) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!WarmLevels(replica_.port(), {kReplicaLevel}, "v0")) {
      report->Diverge("replica warm-up failed");
      return -1;
    }
    return MsSince(t0) / 1000.0;
  }

  void Teardown() override {
    replica_.Stop();
    primary_.Stop();
  }

  void Run(double seconds, Tracer* tracer, Window* window,
           Report* report) override {
    const Json before = StatsOf(primary_.port());
    const Json replica_before = StatsOf(replica_.port());
    const double cpu0 = primary_.CpuSeconds();
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<ThreadOut> outs(kWriters + 1);
    std::mutex mu;
    uint64_t latest_seqno = 0;
    Clock::time_point latest_at;
    bool writers_done = false;
    std::vector<std::vector<AckedWrite>> logs(kWriters);
    std::vector<std::pair<uint64_t, std::string>> replica_reads;
    Samples lag_records;

    auto publish = [&](uint64_t seqno) {
      std::lock_guard<std::mutex> lock(mu);
      if (seqno > latest_seqno) {
        latest_seqno = seqno;
        latest_at = Clock::now();
      }
    };

    // The writers run in lockstep steps; the last to arrive at a step
    // boundary decides whether another round starts.
    std::atomic<bool> go{true};
    std::barrier step_sync(static_cast<std::ptrdiff_t>(kWriters),
                           [&]() noexcept { go = Clock::now() < deadline; });
    std::vector<std::thread> threads;
    for (size_t w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        ThreadOut* out = &outs[w];
        const std::string& level = kLevels[w];
        // A failed session shows as failed requests; the writer still
        // takes part in every step so the others are not held up.
        Result<Client> client = Session(primary_.port(), level);
        int64_t req_id = static_cast<int64_t>(w) << 32;
        int64_t span = -1;  // the last request's client span
        auto timed = [&](const Json& req, const char* span_name, double* ms) {
          span = tracer != nullptr ? tracer->Begin(span_name, -1, req_id++) : -1;
          ++out->attempted;
          const auto sent = Clock::now();
          Result<Json> r = client.ok() ? client->RoundTrip(req)
                                       : Result<Json>(client.status());
          *ms = MsSince(sent);
          if (tracer != nullptr) tracer->End(span);
          return r;
        };
        bool alive = true;
        for (uint64_t n = 0; go.load(); ++n) {
          const std::string key =
              "w" + level + std::to_string(epoch_) + "x" + std::to_string(n);
          const std::string fact = ChurnFact(level, key);
          const std::string goal = PointGoal(level, key, "cau");
          for (int step = 0; step < 2; ++step) {
            // The three writers write together; their read-backs follow
            // once every write of the step is acknowledged.
            const bool retract = step == 1;
            double ms = 0;
            bool wrote = false;
            if (alive) {
              const Result<Json> wr =
                  timed(WriteRequest(retract ? "retract" : "assert", fact),
                        retract ? "client.retract" : "client.assert", &ms);
              alive = wr.ok();
              if (!wr.ok() || !wr->GetBool("ok")) {
                ++out->failed;
              } else {
                const uint64_t seqno = static_cast<uint64_t>(wr->GetInt("seqno"));
                (retract ? out->retract : out->assert_).Add(ms);
                ++out->writes_done;
                logs[w].push_back(AckedWrite{seqno, retract, level, fact});
                publish(seqno);
                wrote = true;
              }
            }
            step_sync.arrive_and_wait();
            if (wrote) {
              const Json rq =
                  QueryRequest(goal, -1, tracer != nullptr && n % 4 == 0);
              if (out->requests.size() < 64) out->requests.push_back(rq.Serialize());
              const Result<Json> rr = timed(rq, "client.read", &ms);
              if (tracer != nullptr) NoteServerSpans(rr, false, tracer, span, out);
              alive = rr.ok();
              if (Score(rr, retract ? absent_ : present_[w], level, goal, out)) {
                out->read.Add(ms);
                ++out->reads_done;
              }
            }
            step_sync.arrive_and_wait();
          }
        }
      });
    }
    // The replica reader: a closed loop of bounded-staleness reads, each
    // with min_seqno = the latest ack, alternating a read of every live
    // churn fact (the first after a new ack times the replica lag) and a
    // wide read of Sigma_0, which the churn never changes.
    threads.emplace_back([&] {
      ThreadOut* out = &outs[kWriters];
      Result<Client> client = Session(replica_.port(), kReplicaLevel);
      if (!client.ok()) {
        ++out->attempted;
        ++out->failed;
        return;
      }
      uint64_t last = 0;
      for (int64_t id = 0;; ++id) {
        uint64_t seqno;
        Clock::time_point acked;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (writers_done) return;
          seqno = latest_seqno;
          acked = latest_at;
        }
        const bool churn = id % 2 == 0;
        const size_t value = static_cast<size_t>(id / 2) % replica_wide_.size();
        const std::string& goal =
            churn ? ChurnWideGoal() : replica_wide_[value].first;
        const Json req = QueryRequest(goal, -1, false, seqno, 30000);
        const int64_t span =
            tracer != nullptr
                ? tracer->Begin(churn ? "client.replica_churn" : "client.wide", -1, id)
                : -1;
        ++out->attempted;
        const auto sent = Clock::now();
        const Result<Json> r = client->RoundTrip(req);
        const auto answered = Clock::now();
        if (tracer != nullptr) tracer->End(span);
        if (!churn) {
          if (Score(r, replica_wide_[value].second, kReplicaLevel, goal, out)) {
            out->wide.Add(MsSince(sent, answered));
          }
          if (!r.ok()) return;
          continue;
        }
        if (!r.ok() || !r->GetBool("ok")) {
          ++out->failed;
          if (!r.ok()) return;
          continue;
        }
        if (seqno > last) out->lag.Add(MsSince(acked, answered));
        const Json* answers = r->Find("answers");
        replica_reads.emplace_back(seqno, answers ? answers->Serialize() : "");
        last = seqno;
        if (tracer != nullptr && id % 64 == 0) {
          const Json stats = StatsOf(replica_.port());
          lag_records.Add(static_cast<double>(
              StatInt(stats, "replication.lag_records")));
        }
      }
    });
    for (size_t w = 0; w < kWriters; ++w) threads[w].join();
    {
      std::lock_guard<std::mutex> lock(mu);
      writers_done = true;
    }
    threads.back().join();
    window->seconds = MsSince(t0) / 1000.0;
    window->server_cpu_s = primary_.CpuSeconds() - cpu0;
    window->rss_mb = primary_.PeakRssMb();
    Collect(outs, window, report, nullptr);
    for (size_t i = 0; i < 16 && i < sigma_.keys.size(); ++i) {
      const std::string& level = kLevels[i % kWriters];
      window->point_goals.emplace_back(level, PointGoal(level, sigma_.keys[i], "cau"));
    }
    ++epoch_;

    for (auto& log : logs) acked_.insert(acked_.end(), log.begin(), log.end());
    std::sort(acked_.begin(), acked_.end(),
              [](const AckedWrite& a, const AckedWrite& b) { return a.seqno < b.seqno; });
    CheckReplicaReads(replica_reads, report);

    if (tracer != nullptr) {
      const Json after = StatsOf(primary_.port());
      const Json replica_after = StatsOf(replica_.port());
      auto delta = [&](const Json& a, const Json& b, const char* path) {
        return static_cast<double>(StatInt(b, path) - StatInt(a, path));
      };
      const double deltas = delta(before, after, "engine.deltas_applied");
      const double fallbacks = delta(before, after, "engine.fallback_recomputes");
      if (deltas + fallbacks > 0) {
        report->Set("multilog.fallback_ratio", fallbacks / (deltas + fallbacks),
                    "ratio");
      }
      const double hits = delta(before, after, "engine.cache_hits");
      const double misses = delta(before, after, "engine.cache_misses");
      if (hits + misses > 0) {
        report->Set("multilog.cache_hit_ratio", hits / (hits + misses), "ratio");
      }
      const double writes = delta(before, after, "engine.asserts_ok") +
                            delta(before, after, "engine.retracts_ok");
      const double syncs = delta(before, after, "storage.group_syncs");
      if (syncs > 0) report->Set("storage.writes_per_sync", writes / syncs, "ratio");
      const double records = delta(before, after, "storage.wal_records");
      if (records > 0) {
        report->Set("storage.wal_bytes_per_write",
                    delta(before, after, "storage.wal_bytes") / records, "B");
      }
      report->Set("replication.lag_records", lag_records.Mean(), "count",
                  static_cast<int64_t>(lag_records.count()));
      report->Set("replication.reconnects",
                  delta(replica_before, replica_after, "replication.reconnects"),
                  "count");
    }
  }

  /// Every replica answer must be the live churn set as of some seqno
  /// at or after the min_seqno it was asked with.
  void CheckReplicaReads(
      const std::vector<std::pair<uint64_t, std::string>>& reads, Report* report) {
    Result<Engine> mini = Engine::FromSource(GenerateSigma(o_.seed, 0, 0).source);
    if (!mini.ok()) {
      report->Diverge("churn reference: " + mini.status().ToString());
      return;
    }
    // states[i] = answer after acked_[i-1] (states[0]: before any write).
    std::vector<uint64_t> at_seqno = {0};
    std::vector<std::string> states = {
        Expected(*mini, ChurnWideGoal(), kReplicaLevel)};
    for (const AckedWrite& w : acked_) {
      if (w.seqno <= seen_seqno_) continue;  // applied in an earlier window
      const auto r = w.retract ? mini->Retract(w.fact, w.level)
                               : mini->Assert(w.fact, w.level);
      if (!r.ok()) {
        report->Diverge("churn replay: " + r.status().ToString());
        return;
      }
      at_seqno.push_back(w.seqno);
      states.push_back(Expected(*mini, ChurnWideGoal(), kReplicaLevel));
    }
    // An answer is allowed iff it is the state at some seqno >= the
    // read's min_seqno: its last occurrence must not precede the state
    // holding at min_seqno.
    std::unordered_map<std::string, size_t> last_at;
    for (size_t i = 0; i < states.size(); ++i) last_at[states[i]] = i;
    for (const auto& [min_seqno, answer] : reads) {
      const size_t at = static_cast<size_t>(
          std::upper_bound(at_seqno.begin(), at_seqno.end(), min_seqno) -
          at_seqno.begin() - 1);
      const auto it = last_at.find(answer);
      if (it == last_at.end() || it->second < at) {
        report->Diverge("replica answer at min_seqno " + std::to_string(min_seqno) +
                        " matches no state at or after it: " + answer.substr(0, 200));
      }
    }
    if (!acked_.empty()) seen_seqno_ = acked_.back().seqno;
  }

  void Verify(Report* report) override {
    // 1. Replica catches up to the last acknowledged write.
    const uint64_t last = acked_.empty() ? 0 : acked_.back().seqno;
    if (last > 0) {
      Result<Client> c = Session(replica_.port(), kReplicaLevel);
      if (!c.ok() || !c->RoundTrip(QueryRequest(ChurnWideGoal(), -1, false, last, 30000)).ok()) {
        report->Diverge("replica did not reach seqno " + std::to_string(last));
      }
    }
    // 2. A reference fed the acknowledged writes in seqno order.
    Result<Engine> reference = Engine::FromSource(sigma_.source);
    if (!reference.ok()) {
      report->Diverge("reference: " + reference.status().ToString());
      return;
    }
    for (size_t i = 0; i < acked_.size(); ++i) {
      if (i > 0 && acked_[i].seqno == acked_[i - 1].seqno) {
        report->Diverge("two writes acknowledged with seqno " +
                        std::to_string(acked_[i].seqno));
      }
      const AckedWrite& w = acked_[i];
      const auto r = w.retract ? reference->Retract(w.fact, w.level)
                               : reference->Assert(w.fact, w.level);
      if (!r.ok()) report->Diverge("reference replay: " + r.status().ToString());
    }
    // 3. Identical answers to a fixed probe set on all three.
    std::vector<std::pair<std::string, std::string>> probes;
    for (const std::string& level : {std::string("u"), kReplicaLevel}) {
      for (int v = 0; v < kValues; ++v) {
        probes.emplace_back(level, WideGoal(level, "v" + std::to_string(v), "cau"));
      }
      probes.emplace_back(level, PointGoal(level, sigma_.keys[0], "opt"));
    }
    for (Daemon* d : {&primary_, &replica_}) {
      std::map<std::string, Result<Client>> sessions;
      for (const auto& [level, goal] : probes) {
        auto it = sessions.find(level);
        if (it == sessions.end()) it = sessions.emplace(level, Session(d->port(), level)).first;
        const Result<Json> r =
            it->second.ok() ? it->second->RoundTrip(QueryRequest(goal, -1, false))
                            : Result<Json>(it->second.status());
        std::string got;
        const std::string want = Expected(*reference, goal, level);
        if (Classify(r, want, &got) != Outcome::kOk) {
          report->Diverge(std::string(d == &primary_ ? "primary" : "replica") +
                          " probe " + goal + ": expected " + want.substr(0, 120) +
                          " got " + got.substr(0, 120));
        }
      }
    }
    // 4. Byte-identical recovered state (DumpSource) of both data dirs.
    replica_.Stop();
    primary_.Stop();
    const std::string want = reference->DumpSource();
    for (const char* name : {"primary", "replica"}) {
      Result<multilog::storage::Storage> storage =
          multilog::storage::Storage::Open(o_.work_dir + "/" + name, sigma_.source);
      Result<Engine> recovered =
          storage.ok() ? Engine::FromStorage(&*storage)
                       : Result<Engine>(storage.status());
      if (!recovered.ok()) {
        report->Diverge(std::string(name) + " recovery: " +
                        recovered.status().ToString());
      } else if (recovered->DumpSource() != want) {
        report->Diverge(std::string(name) +
                        " recovered DumpSource differs from the reference");
      }
    }
  }

  void Layers(const Window& window, Tracer* tracer, Report* report) override {
    ServerOverhead(primary_.port(), sigma_.source, window, tracer, report);
    std::vector<multilog::storage::WalRecord> records;
    for (const AckedWrite& w : acked_) {
      multilog::storage::WalRecord r;
      r.type = w.retract ? multilog::storage::WalRecordType::kRetract
                         : multilog::storage::WalRecordType::kAssert;
      r.seqno = w.seqno;
      r.level = w.level;
      r.fact = w.fact;
      records.push_back(std::move(r));
    }
    fs::remove_all(o_.work_dir + "/layer_storage");
    WritePathLayers(sigma_.source, records, o_.work_dir + "/layer_storage", tracer,
                    report);
    fs::remove_all(o_.work_dir + "/layer_storage");
  }

 private:
  static constexpr size_t kWriters = 3;  // at u, c and s
  inline static const std::string kReplicaLevel = "t";
  Options o_;
  Sigma sigma_;
  std::string db_path_;
  std::vector<std::string> present_;
  std::string absent_;
  std::vector<std::pair<std::string, std::string>> replica_wide_;  // goal, answer
  Daemon primary_;
  Daemon replica_;
  std::vector<AckedWrite> acked_;
  uint64_t seen_seqno_ = 0;
  int epoch_ = 0;  // windows run so far: keeps churn keys fresh across them
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "read_serve") return std::make_unique<ReadServe>(options);
  if (options.workload == "write_churn") return std::make_unique<WriteChurn>(options);
  if (options.workload == "cold_build") return std::make_unique<ColdBuild>(options);
  if (options.workload == "routed") return std::make_unique<Routed>(options);
  return nullptr;
}

}  // namespace perfbench

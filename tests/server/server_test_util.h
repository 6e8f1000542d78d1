#ifndef MULTILOG_TESTS_SERVER_SERVER_TEST_UTIL_H_
#define MULTILOG_TESTS_SERVER_SERVER_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "mls/sample_data.h"
#include "multilog/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "sharding/router.h"
#include "sharding/routing.h"

namespace multilog::server {

/// The router frontend: a sharding::Router over `shard_ports`, served by
/// its own Server on an ephemeral port.
struct RouterFrontend {
  std::unique_ptr<sharding::Router> router;
  std::unique_ptr<Server> server;

  uint16_t port() const { return server->port(); }
  const sharding::ShardMap& shard_map() const { return router->shard_map(); }
  sharding::RouterCounters Counters() const { return router->Counters(); }
  void Stop() { server->Stop(); }
};

/// Builds and starts a RouterFrontend for `source` (the unsplit database
/// the shards were partitioned from); fails the test on error.
inline std::unique_ptr<RouterFrontend> StartRouterFrontend(
    const std::string& source, const std::vector<uint16_t>& shard_ports,
    ServerOptions options = {}) {
  sharding::RouterOptions router_options;
  for (const uint16_t port : shard_ports) {
    router_options.shards.push_back({"127.0.0.1", port});
  }
  Result<std::unique_ptr<sharding::Router>> router =
      sharding::Router::Create(source, router_options);
  EXPECT_TRUE(router.ok()) << router.status();
  if (!router.ok()) return nullptr;
  auto frontend = std::make_unique<RouterFrontend>();
  frontend->router = std::move(router).value();
  options.port = 0;
  frontend->server =
      std::make_unique<Server>(frontend->router.get(), options);
  const Status started = frontend->server->Start();
  EXPECT_TRUE(started.ok()) << started;
  if (!started.ok()) return nullptr;
  return frontend;
}

/// Which multilogd serves a test: the engine daemon, or a router over two
/// in-process shards of the same database.
enum class Frontend { kEngine, kRouter };

inline std::ostream& operator<<(std::ostream& os, Frontend frontend) {
  return os << (frontend == Frontend::kEngine ? "Engine" : "Router");
}

/// Starts a multilogd over the paper's D1 database (Figure 10) with the
/// Figure 1 Mission relation in the SQL catalog, on an ephemeral port.
class ServerTestBase : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    StartFrontend(Frontend::kEngine, options);
  }

  /// The router frontend serves D1 split over two shards, each started
  /// with the same `options`, and has no SQL catalog.
  void StartFrontend(Frontend frontend, ServerOptions options) {
    options.port = 0;
    if (frontend == Frontend::kRouter) {
      constexpr size_t kShards = 2;
      Result<std::vector<std::string>> parts = sharding::PartitionSource(
          mls::D1Source(), sharding::ShardMap(kShards));
      ASSERT_TRUE(parts.ok()) << parts.status();
      std::vector<uint16_t> ports;
      for (const std::string& part : *parts) {
        Result<ml::Engine> engine = ml::Engine::FromSource(part);
        ASSERT_TRUE(engine.ok()) << engine.status();
        shard_engines_.push_back(
            std::make_unique<ml::Engine>(std::move(engine).value()));
        shard_servers_.push_back(std::make_unique<Server>(
            shard_engines_.back().get(), options,
            std::vector<SqlCatalogEntry>{}));
        ASSERT_TRUE(shard_servers_.back()->Start().ok());
        ports.push_back(shard_servers_.back()->port());
      }
      router_ = StartRouterFrontend(mls::D1Source(), ports, options);
      ASSERT_NE(router_, nullptr);
      server_ = router_->server.get();
      return;
    }
    Result<mls::MissionDataset> ds = mls::BuildMissionDataset();
    ASSERT_TRUE(ds.ok()) << ds.status();
    dataset_ = std::move(ds).value();
    Result<ml::Engine> engine = ml::Engine::FromSource(mls::D1Source());
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::make_unique<ml::Engine>(std::move(engine).value());
    owned_server_ = std::make_unique<Server>(
        engine_.get(), options,
        std::vector<SqlCatalogEntry>{{"mission", dataset_.mission.get()}});
    server_ = owned_server_.get();
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    for (auto& shard : shard_servers_) shard->Stop();
  }

  Client MustConnect() {
    Result<Client> c = Client::Connect(server_->port());
    EXPECT_TRUE(c.ok()) << c.status();
    return std::move(c).value();
  }

  mls::MissionDataset dataset_;
  std::unique_ptr<ml::Engine> engine_;
  std::unique_ptr<Server> owned_server_;
  std::vector<std::unique_ptr<ml::Engine>> shard_engines_;
  std::vector<std::unique_ptr<Server>> shard_servers_;
  std::unique_ptr<RouterFrontend> router_;
  /// The server under test: the engine daemon or the router frontend.
  Server* server_ = nullptr;
};

/// ServerTestBase run once per Frontend (instantiate with
/// INSTANTIATE_FRONTEND_TESTS): the protocol parity suites.
class FrontendTest : public ServerTestBase,
                     public ::testing::WithParamInterface<Frontend> {
 protected:
  void StartServer(ServerOptions options = {}) {
    StartFrontend(GetParam(), options);
  }
};

#define INSTANTIATE_FRONTEND_TESTS(suite)                              \
  INSTANTIATE_TEST_SUITE_P(                                            \
      Frontends, suite,                                                \
      ::testing::Values(::multilog::server::Frontend::kEngine,         \
                        ::multilog::server::Frontend::kRouter),        \
      ::testing::PrintToStringParamName())

}  // namespace multilog::server

#endif  // MULTILOG_TESTS_SERVER_SERVER_TEST_UTIL_H_

// KangarooMover tests: spooled, retrying, order-preserving data movement —
// including delivery across a destination outage, the property the
// Kangaroo approach exists for.
#include <gtest/gtest.h>

#include <thread>

#include "client/chirp_client.h"
#include "client/kangaroo.h"
#include "common/units.h"
#include "server/config.h"
#include "server/nest_server.h"

namespace nest {
namespace {

using client::ChirpClient;
using client::KangarooMover;

std::unique_ptr<server::NestServer> start_server(int chirp_port = 0) {
  server::NestServerOptions opts;
  opts.chirp_port = chirp_port;
  opts.http_port = -1;
  opts.ftp_port = -1;
  opts.gridftp_port = -1;
  opts.nfs_port = -1;
  auto server = server::NestServer::start(opts);
  EXPECT_TRUE(server.ok());
  (*server)->gsi().add_user("alice", "s");
  return std::move(server.value());
}

TEST(Kangaroo, DeliversSpooledFiles) {
  auto server = start_server();
  KangarooMover::Options opts;
  opts.port = server->chirp_port();
  opts.user = "alice";
  opts.secret = "s";
  KangarooMover mover(opts);
  ASSERT_TRUE(mover.put("/a.txt", "first hop").ok());
  ASSERT_TRUE(mover.put("/b.txt", std::string(100'000, 'k')).ok());
  ASSERT_TRUE(mover.flush().ok());
  const auto stats = mover.stats();
  EXPECT_EQ(stats.files_delivered, 2);
  EXPECT_EQ(stats.bytes_delivered, 9 + 100'000);
  EXPECT_EQ(stats.spooled_bytes, 0);
  auto c = ChirpClient::connect("127.0.0.1", server->chirp_port(), "alice",
                                "s");
  EXPECT_EQ(c->get("/a.txt").value(), "first hop");
  EXPECT_EQ(c->get("/b.txt")->size(), 100'000u);
  server->stop();
}

TEST(Kangaroo, PutReturnsBeforeDelivery) {
  // The Kangaroo property: enqueueing is decoupled from movement. Spool to
  // a destination that does not exist yet; put() must not block.
  KangarooMover::Options opts;
  opts.port = 1;  // nothing listens here
  opts.max_attempts = 3;
  KangarooMover mover(opts);
  const auto begin = std::chrono::steady_clock::now();
  ASSERT_TRUE(mover.put("/x", std::string(1'000'000, 'x')).ok());
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            500);
  // Let it fail permanently; flush reports it.
  EXPECT_FALSE(mover.flush().ok());
  EXPECT_EQ(mover.stats().permanent_failures, 1);
}

TEST(Kangaroo, SurvivesDestinationOutage) {
  // Reserve a port by starting and stopping a server, spool while it is
  // down, then bring it back on the same port: the mover's retries land.
  auto probe = start_server();
  const uint16_t port = probe->chirp_port();
  probe->stop();
  probe.reset();

  KangarooMover::Options opts;
  opts.port = port;
  opts.user = "alice";
  opts.secret = "s";
  opts.max_attempts = 200;
  KangarooMover mover(opts);
  ASSERT_TRUE(mover.put("/late.txt", "delivered after outage").ok());
  // Poll (bounded) until the mover has provably attempted delivery rather
  // than sleeping a fixed interval and hoping the retry loop ran.
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (mover.stats().retries == 0 &&
         std::chrono::steady_clock::now() < poll_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(mover.stats().files_delivered, 0);  // still down
  EXPECT_GT(mover.stats().retries, 0);          // but trying

  auto revived = start_server(port);
  ASSERT_TRUE(mover.flush().ok());
  EXPECT_EQ(mover.stats().files_delivered, 1);
  auto c = ChirpClient::connect("127.0.0.1", port, "alice", "s");
  EXPECT_EQ(c->get("/late.txt").value(), "delivered after outage");
  revived->stop();
}

TEST(Kangaroo, SpoolLimitEnforced) {
  KangarooMover::Options opts;
  opts.port = 1;
  opts.spool_limit = 1000;
  KangarooMover mover(opts);
  ASSERT_TRUE(mover.put("/a", std::string(800, 'a')).ok());
  EXPECT_EQ(mover.put("/b", std::string(300, 'b')).code(), Errc::no_space);
}

TEST(Kangaroo, PreservesDeliveryOrder) {
  auto server = start_server();
  KangarooMover::Options opts;
  opts.port = server->chirp_port();
  opts.user = "alice";
  opts.secret = "s";
  KangarooMover mover(opts);
  // Same remote path written repeatedly: last spooled version must win.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(mover.put("/seq.txt", "version " + std::to_string(i)).ok());
  }
  ASSERT_TRUE(mover.flush().ok());
  auto c = ChirpClient::connect("127.0.0.1", server->chirp_port(), "alice",
                                "s");
  EXPECT_EQ(c->get("/seq.txt").value(), "version 4");
  server->stop();
}

// ---------- nestd configuration mapping ----------

TEST(NestdConfig, DefaultsAndOverrides) {
  auto cfg = Config::parse(
      "name = nest@site\ncapacity = 2G\nchirp_port = 0\nnfs_port = -1\n"
      "scheduler = stride\ntickets.nfs = 4\ntickets.http = 2\n"
      "user.alice = secret:physics,cms\nuser.bob = hunter2\n");
  ASSERT_TRUE(cfg.ok());
  auto parsed = server::options_from_config(*cfg);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->options.name, "nest@site");
  EXPECT_EQ(parsed->options.capacity, 2000 * kMB);
  EXPECT_EQ(parsed->options.nfs_port, -1);
  EXPECT_EQ(parsed->options.tm.scheduler, "stride");
  ASSERT_EQ(parsed->tickets.size(), 2u);
  ASSERT_EQ(parsed->users.size(), 2u);
  EXPECT_EQ(parsed->users[0].name, "alice");
  ASSERT_EQ(parsed->users[0].groups.size(), 2u);
  EXPECT_EQ(parsed->users[0].groups[1], "cms");
  EXPECT_TRUE(parsed->users[1].groups.empty());
}

TEST(NestdConfig, RejectsBadScheduler) {
  auto cfg = Config::parse("scheduler = roundrobin\n");
  EXPECT_FALSE(server::options_from_config(*cfg).ok());
}

TEST(NestdConfig, RejectsTicketsWithoutStride) {
  auto cfg = Config::parse("scheduler = fifo\ntickets.nfs = 4\n");
  EXPECT_FALSE(server::options_from_config(*cfg).ok());
}

// Configs written for the retired group-commit timer still parse: "group"
// names the batching durable mode, and `journal_commit` is ignored like
// any unknown key.
TEST(NestdConfig, RetiredGroupCommitKeysStillParse) {
  auto cfg = Config::parse(
      "journal = /var/nest/journal\njournal_sync = group\n"
      "journal_commit = 5ms\n");
  ASSERT_TRUE(cfg.ok());
  auto parsed = server::options_from_config(*cfg);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->options.journal_dir, "/var/nest/journal");
  EXPECT_EQ(parsed->options.journal_sync, journal::SyncMode::always);
}

// The compaction cadence is a storage option; the nestd key sets it
// directly.
TEST(NestdConfig, SnapshotCadenceReachesStorageOptions) {
  auto cfg = Config::parse("journal_snapshot_every = 7\n");
  ASSERT_TRUE(cfg.ok());
  auto parsed = server::options_from_config(*cfg);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->options.storage.journal_snapshot_every, 7u);
}

TEST(NestdConfig, AppliedConfigReachesServer) {
  // `adaptive` and `models` are retired keys: like any unknown key they
  // are ignored, so an old config still starts the server.
  auto cfg = Config::parse(
      "chirp_port = 0\nhttp_port = -1\nftp_port = -1\ngridftp_port = -1\n"
      "nfs_port = -1\nscheduler = stride\ntickets.chirp = 3\n"
      "user.carol = pw\nadaptive = false\nmodels = fibers\n");
  auto parsed = server::options_from_config(*cfg);
  ASSERT_TRUE(parsed.ok());
  auto server = server::NestServer::start(parsed->options);
  ASSERT_TRUE(server.ok());
  server::apply_runtime_config(*parsed, **server);
  EXPECT_TRUE((*server)->gsi().has_user("carol"));
  ASSERT_NE((*server)->tm().stride(), nullptr);
  auto c = ChirpClient::connect("127.0.0.1", (*server)->chirp_port(),
                                "carol", "pw");
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->put("/cfg.txt", "configured").ok());
  (*server)->stop();
}

}  // namespace
}  // namespace nest

// Server-level tests: the TransferExecutor's real byte-moving paths, the
// LocalFs-backed appliance, publishing, and lifecycle edge cases.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "client/chirp_client.h"
#include "client/nfs_client.h"
#include "discovery/collector.h"
#include "protocol/executor.h"
#include "server/nest_server.h"
#include "storage/memfs.h"

namespace nest {
namespace {

// ---------- TransferExecutor over loopback ----------

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : fs(RealClock::instance(), 100'000'000),
        tm(RealClock::instance(), transfer::TransferManager::Options{}),
        core(tm, 4),
        executor(RealClock::instance(), tm, core, /*block_bytes=*/8192) {}

  storage::TransferTicket make_ticket(const std::string& path,
                                      const std::string& contents) {
    auto h = fs.create(path);
    EXPECT_TRUE(h.ok());
    EXPECT_TRUE(
        (*h)->pwrite(std::span(contents.data(), contents.size()), 0).ok());
    storage::TransferTicket t;
    t.path = path;
    t.user = "tester";
    t.handle = *h;
    t.size = static_cast<std::int64_t>(contents.size());
    return t;
  }

  storage::MemFs fs;
  transfer::TransferManager tm;
  transfer::TransferCore core;
  protocol::TransferExecutor executor;
};

TEST_F(ExecutorTest, SendFileDeliversExactBytes) {
  std::string payload(50'000, 's');
  payload[0] = 'A';
  payload[49'999] = 'Z';
  auto ticket = make_ticket("/f", payload);
  auto listener = net::TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  std::thread sender([&, port = listener->port()] {
    auto out = net::TcpStream::connect("127.0.0.1", port);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(executor.send_file("chirp", ticket, *out).ok());
    out->shutdown_send();
  });
  auto in = listener->accept();
  ASSERT_TRUE(in.ok());
  std::string got;
  char buf[4096];
  while (true) {
    auto n = in->read_some(std::span(buf, sizeof buf));
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    got.append(buf, static_cast<std::size_t>(*n));
  }
  sender.join();
  EXPECT_TRUE(got == payload);
  EXPECT_EQ(tm.total_bytes(), 50'000);
  EXPECT_EQ(tm.completed_requests(), 1);
}

TEST_F(ExecutorTest, RecvFileStoresExactBytes) {
  auto ticket = make_ticket("/dst", "");
  ticket.size = 30'000;
  auto listener = net::TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  std::string payload(30'000, 'r');
  std::thread writer([&, port = listener->port()] {
    auto out = net::TcpStream::connect("127.0.0.1", port);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out->write_all(payload).ok());
  });
  auto in = listener->accept();
  ASSERT_TRUE(in.ok());
  EXPECT_TRUE(executor.recv_file("chirp", ticket, *in, 30'000).ok());
  writer.join();
  EXPECT_EQ(ticket.handle->size().value(), 30'000);
}

TEST_F(ExecutorTest, RecvUntilEofCountsBytes) {
  auto ticket = make_ticket("/stream", "");
  auto listener = net::TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  std::thread writer([&, port = listener->port()] {
    auto out = net::TcpStream::connect("127.0.0.1", port);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out->write_all(std::string(12'345, 'e')).ok());
    out->shutdown_send();
  });
  auto in = listener->accept();
  ASSERT_TRUE(in.ok());
  auto total = executor.recv_until_eof("ftp", ticket, *in);
  writer.join();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 12'345);
}

TEST_F(ExecutorTest, RecvFileFailsOnShortBody) {
  auto ticket = make_ticket("/short", "");
  auto listener = net::TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  std::thread writer([&, port = listener->port()] {
    auto out = net::TcpStream::connect("127.0.0.1", port);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out->write_all(std::string(100, 'x')).ok());
    out->shutdown_send();  // promised 10 000, sent 100
  });
  auto in = listener->accept();
  ASSERT_TRUE(in.ok());
  EXPECT_FALSE(executor.recv_file("chirp", ticket, *in, 10'000).ok());
  writer.join();
  // The failed request must not leak.
  EXPECT_EQ(tm.in_flight(), 0u);
}

TEST_F(ExecutorTest, BlockOpsReadAndWrite) {
  auto ticket = make_ticket("/blocks", std::string(20'000, 'b'));
  char buf[8192];
  auto n = executor.read_block("nfs", ticket, 8192, std::span(buf, 8192));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 8192);
  const std::string update(100, 'U');
  auto w = executor.write_block(
      "nfs", ticket, 0, std::span<const char>(update.data(), update.size()));
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(*w, 100);
  char verify[100];
  ASSERT_TRUE(ticket.handle->pread(std::span(verify, 100), 0).ok());
  EXPECT_EQ(std::string(verify, 100), update);
}

// ---------- LocalFs-backed appliance ----------

TEST(LocalFsServer, EndToEndOnHostFilesystem) {
  const auto root = std::filesystem::temp_directory_path() /
                    ("nest_srv_" + std::to_string(::getpid()));
  std::filesystem::create_directories(root);

  server::NestServerOptions opts;
  opts.root_dir = root.string();
  opts.capacity = 10'000'000;
  auto server = server::NestServer::start(opts);
  ASSERT_TRUE(server.ok()) << server.error().to_string();
  (*server)->gsi().add_user("alice", "s");

  auto c = client::ChirpClient::connect("127.0.0.1", (*server)->chirp_port(),
                                        "alice", "s");
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->mkdir("/store").ok());
  ASSERT_TRUE(c->put("/store/real.bin", std::string(65'000, 'L')).ok());
  // The bytes exist on the host filesystem.
  EXPECT_TRUE(std::filesystem::exists(root / "store" / "real.bin"));
  EXPECT_EQ(std::filesystem::file_size(root / "store" / "real.bin"), 65'000u);
  // And read back identically.
  EXPECT_EQ(c->get("/store/real.bin")->size(), 65'000u);

  (*server)->stop();
  std::filesystem::remove_all(root);
}

TEST(LocalFsServer, StartFailsOnMissingRoot) {
  server::NestServerOptions opts;
  opts.root_dir = "/no/such/nest/root";
  EXPECT_FALSE(server::NestServer::start(opts).ok());
}

TEST(ExtentBackendServer, EndToEndOnExtentVolume) {
  const auto vol = std::filesystem::temp_directory_path() /
                   ("nest_extent_" + std::to_string(::getpid()) + ".img");
  server::NestServerOptions opts;
  opts.backend = "extent";
  opts.root_dir = vol.string();
  opts.capacity = 8'000'000;
  auto server = server::NestServer::start(opts);
  ASSERT_TRUE(server.ok()) << server.error().to_string();
  (*server)->gsi().add_user("alice", "s");
  auto c = client::ChirpClient::connect("127.0.0.1", (*server)->chirp_port(),
                                        "alice", "s");
  ASSERT_TRUE(c.ok());
  const std::string payload(1'000'000, 'E');
  ASSERT_TRUE(c->put("/vol.bin", payload).ok());
  EXPECT_TRUE(*c->get("/vol.bin") == payload);
  // Writing past the volume's capacity is refused.
  EXPECT_EQ(c->put("/huge.bin", std::string(9'000'000, 'x')).code(),
            Errc::no_space);
  (*server)->stop();
  std::filesystem::remove(vol);
}

TEST(ExtentBackendServer, UnknownBackendRejected) {
  server::NestServerOptions opts;
  opts.backend = "tape";
  EXPECT_FALSE(server::NestServer::start(opts).ok());
}

// ---------- Bandwidth cap ----------

TEST(BandwidthCap, CapsAggregateTransferRate) {
  server::NestServerOptions opts;
  opts.bandwidth_limit = 20'000'000;  // 20 MB/s, far below loopback speed
  auto server = server::NestServer::start(opts);
  ASSERT_TRUE(server.ok());
  (*server)->gsi().add_user("alice", "s");
  auto c = client::ChirpClient::connect("127.0.0.1", (*server)->chirp_port(),
                                        "alice", "s");
  ASSERT_TRUE(c.ok());
  const std::string payload(10'000'000, 'c');
  ASSERT_TRUE(c->put("/capped.bin", payload).ok());  // put is capped too
  const auto begin = std::chrono::steady_clock::now();
  auto got = c->get("/capped.bin");
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - begin)
          .count();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), payload.size());
  // 10 MB at 20 MB/s: >= ~450 ms (tolerating scheduling slop).
  EXPECT_GE(elapsed_ms, 450);
}

TEST(BandwidthCap, UncappedByDefault) {
  server::NestServerOptions opts;
  auto server = server::NestServer::start(opts);
  ASSERT_TRUE(server.ok());
  (*server)->gsi().add_user("alice", "s");
  auto c = client::ChirpClient::connect("127.0.0.1", (*server)->chirp_port(),
                                        "alice", "s");
  const std::string payload(10'000'000, 'u');
  ASSERT_TRUE(c->put("/fast.bin", payload).ok());
  const auto begin = std::chrono::steady_clock::now();
  ASSERT_TRUE(c->get("/fast.bin").ok());
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - begin)
          .count();
  EXPECT_LT(elapsed_ms, 450);  // loopback moves 10 MB far faster than 20 MB/s
}

// ---------- Lifecycle / publishing ----------

TEST(ServerLifecycle, StopIsIdempotentAndFast) {
  server::NestServerOptions opts;
  auto server = server::NestServer::start(opts);
  ASSERT_TRUE(server.ok());
  const auto begin = std::chrono::steady_clock::now();
  (*server)->stop();
  (*server)->stop();  // second stop: no-op
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            5);
}

TEST(ServerLifecycle, DisabledProtocolsStayOff) {
  server::NestServerOptions opts;
  opts.http_port = -1;
  opts.nfs_port = -1;
  auto server = server::NestServer::start(opts);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->http_port(), 0);
  EXPECT_EQ((*server)->nfs_port(), 0);
  EXPECT_NE((*server)->chirp_port(), 0);
  (*server)->stop();
}

TEST(ServerLifecycle, PeriodicPublishingRefreshesAds) {
  server::NestServerOptions opts;
  opts.name = "publisher-test";
  auto server = server::NestServer::start(opts);
  ASSERT_TRUE(server.ok());
  discovery::Collector collector(RealClock::instance());
  (*server)->dispatcher().start_publishing(collector);
  // The publisher fires immediately on start.
  for (int i = 0; i < 100 && collector.size() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  auto ad = collector.lookup("publisher-test");
  ASSERT_TRUE(ad.has_value());
  EXPECT_EQ(ad->eval_string("Type").value(), "Storage");
  (*server)->dispatcher().stop_publishing();
  (*server)->stop();
}

}  // namespace
}  // namespace nest

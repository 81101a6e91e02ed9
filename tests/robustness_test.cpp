// Robustness tests: malformed wire input, connection drops mid-transfer,
// garbage RPC datagrams, and the per-user proportional-share extension.
// A storage appliance lives on an open network; none of this may crash or
// wedge the server.
#include <gtest/gtest.h>

#include <thread>

#include "client/chirp_client.h"
#include "client/http_client.h"
#include "client/nfs_client.h"
#include "server/nest_server.h"

namespace nest {
namespace {

using client::ChirpClient;
using client::HttpClient;
using server::NestServer;
using server::NestServerOptions;

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    NestServerOptions opts;
    opts.conn_read_timeout_ms = 2000;  // keep abandoned-connection tests fast
    auto server = NestServer::start(opts);
    ASSERT_TRUE(server.ok());
    server_ = std::move(server.value());
    server_->gsi().add_user("alice", "s");
  }
  void TearDown() override { server_->stop(); }

  // Raw connection helper.
  net::TcpStream raw(uint16_t port) {
    auto s = net::TcpStream::connect("127.0.0.1", port);
    EXPECT_TRUE(s.ok());
    return std::move(s.value());
  }

  // The server must still answer properly after whatever abuse happened.
  void expect_still_alive() {
    auto c = ChirpClient::connect("127.0.0.1", server_->chirp_port(),
                                  "alice", "s");
    ASSERT_TRUE(c.ok()) << c.error().to_string();
    EXPECT_TRUE(c->put("/alive.txt", "yes").ok());
    EXPECT_EQ(c->get("/alive.txt").value(), "yes");
  }

  std::unique_ptr<NestServer> server_;
};

TEST_F(RobustnessTest, ChirpGarbageLines) {
  auto s = raw(server_->chirp_port());
  (void)s.read_line();  // greeting
  for (const char* junk :
       {"", "   ", "FROBNICATE /x", "GET", "PUT /x", "PUT /x notanumber",
        "LOT CREATE x y", "ACL SET", "RESPONSE deadbeef",
        "MKDIR", "\t\t\t", "AUTH"}) {
    ASSERT_TRUE(s.write_all(std::string(junk) + "\r\n").ok());
  }
  // Server answers each line (or politely rejects) without dying.
  expect_still_alive();
}

TEST_F(RobustnessTest, ChirpBinaryGarbage) {
  auto s = raw(server_->chirp_port());
  (void)s.read_line();
  std::string noise(512, '\0');
  for (std::size_t i = 0; i < noise.size(); ++i) {
    noise[i] = static_cast<char>(i * 37 + 1);
  }
  noise += "\n";
  ASSERT_TRUE(s.write_all(noise).ok());
  s.shutdown_send();
  expect_still_alive();
}

TEST_F(RobustnessTest, HttpMalformedRequests) {
  for (const char* junk :
       {"GARBAGE\r\n\r\n", "GET\r\n\r\n", "GET /x\r\n\r\n",
        "PUT /x HTTP/1.0\r\nContent-Length: -5\r\n\r\n",
        "GET /x HTTP/1.0\r\nNoColonHeader\r\n\r\n"}) {
    auto s = raw(server_->http_port());
    (void)s.write_all(std::string(junk));
    char buf[256];
    (void)s.read_some(std::span(buf, sizeof buf));  // may be error or reply
  }
  expect_still_alive();
}

TEST_F(RobustnessTest, ClientDropsMidPut) {
  {
    auto s = raw(server_->chirp_port());
    (void)s.read_line();
    ASSERT_TRUE(s.write_all(std::string("AUTH anonymous\r\n")).ok());
    (void)s.read_line();
    // Anonymous can't write at /, so authenticate properly via second conn
  }
  {
    auto c = ChirpClient::connect("127.0.0.1", server_->chirp_port(),
                                  "alice", "s");
    ASSERT_TRUE(c.ok());
    // Hand-roll a PUT that promises 1 MB and sends only a fraction.
    auto s = raw(server_->chirp_port());
    (void)s.read_line();
    ASSERT_TRUE(s.write_all(std::string("AUTH alice\r\n")).ok());
    auto challenge = s.read_line();
    ASSERT_TRUE(challenge.ok());
    ASSERT_TRUE(
        s.write_all("RESPONSE " +
                    protocol::GsiRegistry::respond("s", challenge->substr(4)) +
                    "\r\n")
            .ok());
    (void)s.read_line();
    ASSERT_TRUE(s.write_all(std::string("PUT /partial.bin 1000000\r\n")).ok());
    auto go = s.read_line();
    ASSERT_TRUE(go.ok());
    ASSERT_EQ(go->rfind("150", 0), 0u);
    (void)s.write_all(std::string(1000, 'x'));
  }  // connection destroyed mid-body: server sees EOF
  expect_still_alive();
}

TEST_F(RobustnessTest, ClientDropsMidGet) {
  auto c = ChirpClient::connect("127.0.0.1", server_->chirp_port(), "alice",
                                "s");
  ASSERT_TRUE(c->put("/big.bin", std::string(2'000'000, 'g')).ok());
  {
    auto s = raw(server_->chirp_port());
    (void)s.read_line();
    ASSERT_TRUE(s.write_all(std::string("AUTH anonymous\r\n")).ok());
    (void)s.read_line();
    ASSERT_TRUE(s.write_all(std::string("GET /big.bin\r\n")).ok());
    auto first = s.read_line();
    ASSERT_TRUE(first.ok());
  }  // drop without reading the body: server's send fails, thread exits
  expect_still_alive();
}

TEST_F(RobustnessTest, NfsGarbageDatagrams) {
  auto sock = net::UdpSocket::bind(0);
  ASSERT_TRUE(sock.ok());
  const std::string payloads[] = {
      "", "x", std::string(16, '\xff'), std::string(3000, 'z'),
      std::string("\x00\x00\x00\x01", 4)};
  for (const auto& p : payloads) {
    (void)sock->send_to(std::span<const char>(p.data(), p.size()),
                        "127.0.0.1", server_->nfs_port());
  }
  // A valid request still succeeds afterwards.
  auto nfs = client::NfsClient::connect("127.0.0.1", server_->nfs_port());
  ASSERT_TRUE(nfs.ok());
  EXPECT_TRUE(nfs->mount("/").ok());
  expect_still_alive();
}

TEST_F(RobustnessTest, AbandonedIdleConnectionsTimeOut) {
  // Open connections and walk away; the idle timeout must reap them so
  // stop() (in TearDown) is fast. The test passing at all proves it.
  std::vector<net::TcpStream> zombies;
  for (int i = 0; i < 4; ++i) {
    zombies.push_back(raw(server_->chirp_port()));
  }
  expect_still_alive();
  // TearDown's stop() shuts the sockets down; no 30 s hang.
}

// --- Per-user proportional share (the paper's named future work) ---

TEST(PerUserShare, StrideByUserFollowsTickets) {
  ManualClock clock;
  transfer::StrideScheduler::Options opts;
  opts.share_class = transfer::ShareClass::by_user;
  transfer::StrideScheduler s(clock, opts);
  s.set_tickets("alice", 3);
  s.set_tickets("bob", 1);
  transfer::TransferRequest a;
  a.protocol = "http";
  a.user = "alice";
  transfer::TransferRequest b;
  b.protocol = "http";  // same protocol: split is by user, not protocol
  b.user = "bob";
  std::map<std::string, std::int64_t> bytes;
  s.enqueue(&a);
  s.enqueue(&b);
  for (int i = 0; i < 4000; ++i) {
    auto* r = s.next();
    ASSERT_NE(r, nullptr);
    s.charge(r, 1000);
    bytes[r->user] += 1000;
    s.enqueue(r);
  }
  EXPECT_NEAR(static_cast<double>(bytes["alice"]) /
                  static_cast<double>(bytes["bob"]),
              3.0, 0.1);
}

TEST(PerUserShare, FactoryMakesUserStride) {
  ManualClock clock;
  auto s = transfer::make_scheduler("stride-user", clock);
  ASSERT_NE(s, nullptr);
  EXPECT_STREQ(s->name(), "stride");
}

TEST(PerUserShare, RealServerTicketsCarryUser) {
  server::NestServerOptions opts;
  opts.tm.scheduler = "stride-user";
  auto server = NestServer::start(opts);
  ASSERT_TRUE(server.ok());
  (*server)->gsi().add_user("alice", "s");
  (*server)->tm().stride()->set_tickets("alice", 4);
  auto c = ChirpClient::connect("127.0.0.1", (*server)->chirp_port(),
                                "alice", "s");
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->put("/mine.txt", "scheduled by user class").ok());
  EXPECT_EQ(c->get("/mine.txt").value(), "scheduled by user class");
  (*server)->stop();
}

}  // namespace
}  // namespace nest

// Deterministic fuzz/property tests over the parsers and path logic.
// Invariants: parsers never crash or hang on arbitrary input; parse is
// total (value or error); normalization is idempotent and sandboxed.
#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "classad/classad.h"
#include "client/chirp_client.h"
#include "common/config.h"
#include "common/string_util.h"
#include "net/socket.h"
#include "protocol/ftp_handler.h"
#include "protocol/xdr.h"
#include "server/nest_server.h"

namespace nest {
namespace {

std::string random_string(std::mt19937_64& rng, std::size_t max_len,
                          bool printable_only) {
  std::uniform_int_distribution<std::size_t> len_dist(0, max_len);
  const std::size_t len = len_dist(rng);
  std::string out(len, '\0');
  for (auto& c : out) {
    if (printable_only) {
      c = static_cast<char>(' ' + rng() % 95);
    } else {
      c = static_cast<char>(rng() % 256);
    }
  }
  return out;
}

// Tokens the ClassAd grammar knows, assembled in random order: this biases
// the fuzz toward deep parser paths instead of failing in the lexer.
std::string random_token_soup(std::mt19937_64& rng, int tokens) {
  static const char* kTokens[] = {
      "[", "]", "{", "}", "(", ")", ";", ",", ".", "=", "==", "!=", "=?=",
      "=!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "&&", "||",
      "!", "?", ":", "true", "false", "undefined", "error", "x", "Foo",
      "my", "target", "other", "strcat", "member", "size", "1", "42",
      "3.14", "\"str\"", "\"\""};
  std::string out;
  for (int i = 0; i < tokens; ++i) {
    out += kTokens[rng() % (sizeof(kTokens) / sizeof(kTokens[0]))];
    out += ' ';
  }
  return out;
}

class FuzzSeed : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeed, ClassAdParserIsTotalOnRandomBytes) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 300; ++i) {
    const std::string input = random_string(rng, 200, /*printable=*/false);
    // Must return (either way), not crash, not hang.
    auto expr = classad::parse_expr(input);
    auto ad = classad::ClassAd::parse(input);
    (void)expr;
    (void)ad;
  }
}

TEST_P(FuzzSeed, ClassAdParserIsTotalOnTokenSoup) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  for (int i = 0; i < 300; ++i) {
    const std::string input = random_token_soup(rng, 1 + rng() % 40);
    auto expr = classad::parse_expr(input);
    if (expr.ok()) {
      // Whatever parses must evaluate without crashing and print a form
      // that re-parses.
      classad::EvalContext ctx;
      (void)(*expr)->eval(ctx);
      auto reparsed = classad::parse_expr((*expr)->to_string());
      EXPECT_TRUE(reparsed.ok()) << (*expr)->to_string();
    }
  }
}

TEST_P(FuzzSeed, XdrDecoderIsTotalOnRandomBytes) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  for (int i = 0; i < 500; ++i) {
    const std::string bytes = random_string(rng, 120, /*printable=*/false);
    protocol::xdr::Decoder dec(
        std::span<const char>(bytes.data(), bytes.size()));
    // Random decode sequence mirrors the NFS service's access pattern.
    (void)protocol::xdr::decode_call(dec);
    protocol::xdr::Decoder dec2(
        std::span<const char>(bytes.data(), bytes.size()));
    (void)dec2.get_u32();
    (void)dec2.get_string(64);
    (void)dec2.get_opaque(64);
    (void)dec2.get_u64();
  }
}

TEST_P(FuzzSeed, PathNormalizationInvariants) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 3000);
  for (int i = 0; i < 500; ++i) {
    // Path-flavored input: slashes, dots, names.
    std::string path;
    for (int k = 0; k < static_cast<int>(1 + rng() % 12); ++k) {
      switch (rng() % 5) {
        case 0: path += "/"; break;
        case 1: path += ".."; break;
        case 2: path += "."; break;
        case 3: path += "dir" + std::to_string(rng() % 4); break;
        case 4: path += "//"; break;
      }
    }
    const std::string norm = normalize_path(path);
    // Always absolute.
    ASSERT_FALSE(norm.empty());
    ASSERT_EQ(norm[0], '/');
    // No component is "." or ".." (names like "...." are literal file
    // names and legal), no '//' survives: the sandbox property.
    for (const auto& comp : split(norm.substr(1), '/')) {
      ASSERT_NE(comp, "..") << path;
      ASSERT_NE(comp, ".") << path;
    }
    ASSERT_EQ(norm.find("//"), std::string::npos) << path;
    // Idempotent.
    ASSERT_EQ(normalize_path(norm), norm) << path;
    // parent/basename recompose.
    if (norm != "/") {
      ASSERT_EQ(join_path(parent_path(norm), basename_of(norm)), norm);
    }
  }
}

TEST_P(FuzzSeed, ConfigParserIsTotal) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 4000);
  for (int i = 0; i < 300; ++i) {
    const std::string input = random_string(rng, 150, /*printable=*/true);
    auto cfg = Config::parse(input);
    if (cfg.ok()) {
      // Lookups on arbitrary parsed configs never crash.
      (void)cfg->get_int("port", -1);
      (void)cfg->get_size("capacity", -1);
      (void)cfg->get_bool("flag", false);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed, ::testing::Values(1, 2, 3, 4, 5));

// ---------- Live-server frame fuzzing (PR 3 sweep) ----------
//
// Truncated, oversized, and garbage frames against every wire endpoint
// of one running appliance. The invariant is the robustness principle in
// reverse: no input from the network may crash, hang, or wedge the
// server — after every barrage a well-formed Chirp session must still
// work. Crashes found here get pinned as named regression tests below.

class ServerFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    server::NestServerOptions o;
    o.capacity = 10'000'000;
    o.conn_read_timeout_ms = 2'000;
    auto s = server::NestServer::start(std::move(o));
    ASSERT_TRUE(s.ok()) << s.error().to_string();
    server_ = std::move(*s);
    server_->gsi().add_user("alice", "s");
  }
  void TearDown() override {
    if (server_) server_->stop();
  }

  // Fire one frame at a TCP port, optionally read whatever comes back,
  // and drop the connection (mid-frame close = the truncation case).
  void blast_tcp(uint16_t port, const std::string& frame) {
    auto c = net::TcpStream::connect("127.0.0.1", port);
    ASSERT_TRUE(c.ok());
    (void)c->set_read_timeout(200);
    (void)c->write_all(frame);
    char buf[512];
    (void)c->read_some(std::span(buf, sizeof buf));
  }

  // The liveness probe: the appliance still speaks Chirp correctly.
  void expect_alive() {
    auto c = client::ChirpClient::connect("127.0.0.1", server_->chirp_port(),
                                          "alice", "s");
    ASSERT_TRUE(c.ok()) << "server wedged: " << c.error().to_string();
    const std::string body = "still-alive";
    ASSERT_TRUE(c->put("/alive", body).ok());
    auto got = c->get("/alive");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, body);
    ASSERT_TRUE(c->unlink("/alive").ok());
  }

  std::unique_ptr<server::NestServer> server_;
};

TEST_F(ServerFuzz, GarbageFramesAgainstEveryTcpHandler) {
  std::mt19937_64 rng(0xf00d);
  const uint16_t ports[] = {server_->chirp_port(), server_->http_port(),
                            server_->ftp_port(), server_->gridftp_port()};
  for (const uint16_t port : ports) {
    for (int i = 0; i < 12; ++i) {
      blast_tcp(port, random_string(rng, 400, /*printable=*/false));
    }
    // Oversized single line: a 256 KB token with no terminator.
    blast_tcp(port, std::string(256 * 1024, 'A'));
    // Torn CRLF framing.
    blast_tcp(port, "GET /x\r");
    blast_tcp(port, "\r\n\r\n\r\n");
  }
  expect_alive();
}

TEST_F(ServerFuzz, GarbageDatagramsAgainstNfs) {
  std::mt19937_64 rng(0xbeef);
  auto sock = net::UdpSocket::bind(0);
  ASSERT_TRUE(sock.ok());
  (void)sock->set_read_timeout(50);
  for (int i = 0; i < 40; ++i) {
    const std::string pkt = random_string(rng, 300, /*printable=*/false);
    (void)sock->send_to(std::span<const char>(pkt.data(), pkt.size()),
                        "127.0.0.1", server_->nfs_port());
  }
  // Truncated RPC header: 3 bytes of a call.
  const char tiny[3] = {0, 0, 1};
  (void)sock->send_to(std::span<const char>(tiny, 3), "127.0.0.1",
                      server_->nfs_port());
  // Well-formed header followed by truncated XDR args.
  protocol::xdr::Encoder enc;
  protocol::xdr::encode_call(enc, 9, 100003, 2, 4 /* READ */);
  enc.put_u32(32);  // claims a 32-byte fh, then ends
  (void)sock->send_to(enc.span(), "127.0.0.1", server_->nfs_port());
  char buf[512];
  std::string ip;
  uint16_t port = 0;
  (void)sock->recv_from(std::span(buf, sizeof buf), ip, port);
  expect_alive();
}

// --- Named regressions (one per crash class found while fuzzing) ---

// A MODE E data-channel block header carries an attacker-controlled
// 64-bit length. The receiver must refuse absurd declarations instead of
// attempting the allocation (found as an OOM-DoS: a 17-byte frame could
// demand a petabyte-scale buffer).
TEST_F(ServerFuzz, GridFtpModeEOversizedBlockHeader) {
  auto listener = net::TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  std::thread sender([&, port = listener->port()] {
    auto out = net::TcpStream::connect("127.0.0.1", port);
    ASSERT_TRUE(out.ok());
    // desc(1) + count(8, big-endian) + offset(8).
    unsigned char hdr[17] = {0};
    hdr[1] = 0x01;  // count = 2^56 bytes
    ASSERT_TRUE(
        out->write_all(std::span(reinterpret_cast<char*>(hdr), 17)).ok());
  });
  auto in = listener->accept();
  ASSERT_TRUE(in.ok());
  std::vector<char> data;
  std::int64_t off = 0;
  auto r = protocol::ModeEBlock::recv(*in, data, off);
  sender.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::protocol_error);
  // The declared size was never allocated.
  EXPECT_LT(data.capacity(), std::size_t{1} << 30);
}

// A Chirp PUT that promises a body and closes mid-stream must not wedge
// the connection thread or corrupt later sessions.
TEST_F(ServerFuzz, ChirpTruncatedPutBody) {
  // The root ACL denies anonymous inserts; open a scratch directory so the
  // PUT gets far enough to promise a body it will never deliver.
  auto ctrl = client::ChirpClient::connect("127.0.0.1", server_->chirp_port(),
                                           "alice", "s");
  ASSERT_TRUE(ctrl.ok());
  ASSERT_TRUE(ctrl->mkdir("/pub").ok());
  ASSERT_TRUE(
      ctrl->acl_set("/pub",
                    "[ Principal = \"system:anyuser\"; Rights = \"rwlid\"; ]")
          .ok());

  auto raw = net::TcpStream::connect("127.0.0.1", server_->chirp_port());
  ASSERT_TRUE(raw.ok());
  (void)raw->set_read_timeout(2'000);
  ASSERT_TRUE(raw->read_line().ok());  // 220 greeting
  ASSERT_TRUE(raw->write_all(std::string("AUTH anonymous\r\n")).ok());
  ASSERT_TRUE(raw->read_line().ok());  // 230
  ASSERT_TRUE(raw->write_all(std::string("PUT /pub/trunc 100000\r\n")).ok());
  auto go = raw->read_line();
  ASSERT_TRUE(go.ok());
  ASSERT_EQ(go->rfind("150", 0), 0u) << *go;
  ASSERT_TRUE(raw->write_all(std::string(1000, 'x')).ok());
  raw->shutdown_send();  // 99 KB short of the promised body
  expect_alive();
}

// Oversized and negative HTTP Content-Length declarations: the handler
// must bound what it believes, not allocate or loop on it.
TEST_F(ServerFuzz, HttpPathologicalContentLength) {
  blast_tcp(server_->http_port(),
            "PUT /big HTTP/1.0\r\nContent-Length: 999999999999999999\r\n"
            "\r\nshort");
  blast_tcp(server_->http_port(),
            "PUT /neg HTTP/1.0\r\nContent-Length: -17\r\n\r\n");
  blast_tcp(server_->http_port(),
            "PUT /nan HTTP/1.0\r\nContent-Length: banana\r\n\r\n");
  expect_alive();
}

// ClassAd token soup through the ACL SET wire path: the parser runs on
// attacker-supplied text inside an authenticated session; parse failures
// must come back as errors, never crashes.
TEST_F(ServerFuzz, ClassAdTokenSoupViaAclSet) {
  auto c = client::ChirpClient::connect("127.0.0.1", server_->chirp_port(),
                                        "alice", "s");
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->mkdir("/soup").ok());
  std::mt19937_64 rng(0xc1a55);
  for (int i = 0; i < 40; ++i) {
    (void)c->acl_set("/soup", random_token_soup(rng, 1 + rng() % 25));
  }
  // The directory ACL still parses and the session still works.
  EXPECT_TRUE(c->acl_get("/soup").ok());
  expect_alive();
}

}  // namespace
}  // namespace nest

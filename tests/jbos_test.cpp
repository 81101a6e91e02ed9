// Tests for the real-mode JBOS baselines and their contrast with NeST:
// native single-protocol servers over one shared filesystem, no shared
// policy engine.
#include <gtest/gtest.h>

#include <string>

#include "churn_footprint.h"
#include "client/chirp_client.h"
#include "client/ftp_client.h"
#include "client/http_client.h"
#include "common/clock.h"
#include "jbos/jbos.h"
#include "storage/memfs.h"

namespace nest {
namespace {

class JbosTest : public ::testing::Test {
 protected:
  JbosTest() : fs(RealClock::instance(), 100'000'000) {}

  void write_file(const std::string& path, const std::string& data) {
    auto h = fs.create(path);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE((*h)->pwrite(std::span(data.data(), data.size()), 0).ok());
  }

  storage::MemFs fs;
};

TEST_F(JbosTest, MiniHttpServesFiles) {
  write_file("/page.txt", "hello from jbos");
  jbos::MiniHttpServer server(fs, /*writable=*/false);
  ASSERT_TRUE(server.start().ok());
  client::HttpClient http("127.0.0.1", server.port());
  auto r = http.get("/page.txt");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 200);
  EXPECT_EQ(r->body, "hello from jbos");
  EXPECT_EQ(http.get("/missing")->status, 404);
  // Read-only server rejects PUT.
  EXPECT_EQ(http.put("/up.txt", "x")->status, 405);
  server.stop();
}

TEST_F(JbosTest, MiniHttpWritableAcceptsPut) {
  jbos::MiniHttpServer server(fs, /*writable=*/true);
  ASSERT_TRUE(server.start().ok());
  client::HttpClient http("127.0.0.1", server.port());
  EXPECT_EQ(http.put("/up.txt", "uploaded")->status, 201);
  EXPECT_EQ(http.get("/up.txt")->body, "uploaded");
  server.stop();
}

TEST_F(JbosTest, MiniFtpRetrStorList) {
  write_file("/data.bin", std::string(100'000, 'j'));
  jbos::MiniFtpServer server(fs, /*writable=*/true);
  ASSERT_TRUE(server.start().ok());
  auto ftp = client::FtpClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(ftp.ok()) << ftp.error().to_string();
  auto got = ftp->retr("/data.bin");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 100'000u);
  ASSERT_TRUE(ftp->stor("/up.bin", "ftp upload").ok());
  auto check = fs.stat("/up.bin");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->size, 10);
  auto listing = ftp->list("/");
  ASSERT_TRUE(listing.ok());
  EXPECT_NE(listing->find("data.bin"), std::string::npos);
  EXPECT_TRUE(ftp->quit().ok());
  server.stop();
}

TEST_F(JbosTest, MiniChirpGetPut) {
  write_file("/f.txt", "native chirp");
  jbos::MiniChirpServer server(fs, /*writable=*/true);
  ASSERT_TRUE(server.start().ok());
  // The full ChirpClient works against the mini server's subset.
  auto c = client::ChirpClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(c.ok()) << c.error().to_string();
  EXPECT_EQ(c->get("/f.txt").value(), "native chirp");
  EXPECT_TRUE(c->put("/g.txt", "stored").ok());
  EXPECT_EQ(c->get("/g.txt").value(), "stored");
  auto names = c->list("/");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 2u);
  server.stop();
}

// The point of the comparison: a bunch of servers shares bytes on disk but
// has no shared policy — no lots, no ACLs, no cross-protocol accounting.
TEST_F(JbosTest, BunchSharesFilesystemButNoPolicy) {
  jbos::MiniHttpServer http_srv(fs, true);
  jbos::MiniFtpServer ftp_srv(fs, true);
  jbos::MiniChirpServer chirp_srv(fs, true);
  ASSERT_TRUE(http_srv.start().ok());
  ASSERT_TRUE(ftp_srv.start().ok());
  ASSERT_TRUE(chirp_srv.start().ok());

  // A file stored via FTP is visible via HTTP and Chirp (same MemFs)...
  auto ftp = client::FtpClient::connect("127.0.0.1", ftp_srv.port());
  ASSERT_TRUE(ftp->stor("/shared.txt", "bunch of servers").ok());
  client::HttpClient http("127.0.0.1", http_srv.port());
  EXPECT_EQ(http.get("/shared.txt")->body, "bunch of servers");
  auto chirp = client::ChirpClient::connect("127.0.0.1", chirp_srv.port());
  EXPECT_EQ(chirp->get("/shared.txt").value(), "bunch of servers");

  // ...but anonymous writes cannot be policy-controlled per protocol:
  // whatever one server allows, it allows for everyone. (NeST's ACL
  // engine distinguishes principals and protocols; see integration tests.)
  EXPECT_EQ(http.put("/anyone.txt", "x")->status, 201);

  http_srv.stop();
  ftp_srv.stop();
  chirp_srv.stop();
}

// The bunch's servers reap finished connection threads the same way NeST
// does, so their memory stays flat under churn too.
TEST_F(JbosTest, ConnectionChurnKeepsMemoryFlat) {
  jbos::MiniChirpServer server(fs, /*writable=*/false);
  ASSERT_TRUE(server.start().ok());
  churn(server.port(), 500);
  const VmFootprint warm = vm_footprint();
  churn(server.port(), 2'000);
  const VmFootprint end = vm_footprint();
  EXPECT_LT(end.maps - warm.maps, 200);
  EXPECT_LT(end.vm_kb - warm.vm_kb, 256 * 1024);
  server.stop();
}

}  // namespace
}  // namespace nest

// End-to-end tests: a real NestServer on loopback, exercised through every
// protocol client. These verify the paper's central claim — one appliance,
// one policy engine, many protocols — on actual sockets.
#include <gtest/gtest.h>

#include "client/chirp_client.h"
#include "common/string_util.h"
#include "client/ftp_client.h"
#include "client/http_client.h"
#include "client/nfs_client.h"
#include "server/nest_server.h"

namespace nest {
namespace {

using client::ChirpClient;
using client::FtpClient;
using client::HttpClient;
using client::NfsClient;
using server::NestServer;
using server::NestServerOptions;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    NestServerOptions opts;
    opts.capacity = 100'000'000;
    auto server = NestServer::start(opts);
    ASSERT_TRUE(server.ok()) << server.error().to_string();
    server_ = std::move(server.value());
    server_->gsi().add_user("alice", "alice-secret", {"physics"});
    server_->gsi().add_user("bob", "bob-secret");
  }
  void TearDown() override { server_->stop(); }

  Result<ChirpClient> alice() {
    return ChirpClient::connect("127.0.0.1", server_->chirp_port(), "alice",
                                "alice-secret");
  }
  Result<ChirpClient> anon_chirp() {
    return ChirpClient::connect("127.0.0.1", server_->chirp_port());
  }

  std::unique_ptr<NestServer> server_;
};

// ---------- Chirp ----------

TEST_F(IntegrationTest, ChirpAuthAndFileLifecycle) {
  auto c = alice();
  ASSERT_TRUE(c.ok()) << c.error().to_string();
  ASSERT_TRUE(c->mkdir("/data").ok());
  ASSERT_TRUE(c->put("/data/hello.txt", "hello grid storage").ok());
  auto got = c->get("/data/hello.txt");
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_EQ(*got, "hello grid storage");
  auto st = c->stat("/data/hello.txt");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 18);
  EXPECT_FALSE(st->is_dir);
  EXPECT_EQ(st->owner, "alice");
  auto names = c->list("/data");
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 1u);
  EXPECT_EQ((*names)[0], "hello.txt");
  ASSERT_TRUE(c->rename("/data/hello.txt", "/data/renamed.txt").ok());
  ASSERT_TRUE(c->unlink("/data/renamed.txt").ok());
  ASSERT_TRUE(c->rmdir("/data").ok());
  EXPECT_TRUE(c->quit().ok());
}

TEST_F(IntegrationTest, ChirpRejectsBadCredentials) {
  auto bad = ChirpClient::connect("127.0.0.1", server_->chirp_port(), "alice",
                                  "wrong-secret");
  EXPECT_FALSE(bad.ok());
  auto unknown = ChirpClient::connect("127.0.0.1", server_->chirp_port(),
                                      "mallory", "x");
  EXPECT_FALSE(unknown.ok());
}

TEST_F(IntegrationTest, ChirpAnonymousIsReadOnly) {
  auto a = alice();
  ASSERT_TRUE(a->put("/public.txt", "readable").ok());
  auto anon = anon_chirp();
  ASSERT_TRUE(anon.ok());
  auto got = anon->get("/public.txt");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "readable");
  EXPECT_EQ(anon->put("/evil.txt", "nope").code(), Errc::permission_denied);
  EXPECT_EQ(anon->mkdir("/evil").code(), Errc::permission_denied);
}

TEST_F(IntegrationTest, ChirpLargeTransferRoundTrip) {
  auto c = alice();
  std::string big(3'000'000, 'x');
  for (std::size_t i = 0; i < big.size(); i += 4096) {
    big[i] = static_cast<char>('a' + (i / 4096) % 26);
  }
  ASSERT_TRUE(c->put("/big.bin", big).ok());
  auto got = c->get("/big.bin");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), big.size());
  EXPECT_TRUE(*got == big);
}

TEST_F(IntegrationTest, ChirpLotLifecycle) {
  auto c = alice();
  auto lot = c->lot_create(1'000'000, 3600);
  ASSERT_TRUE(lot.ok()) << lot.error().to_string();
  auto desc = c->lot_query(*lot);
  ASSERT_TRUE(desc.ok());
  EXPECT_NE(desc->find("owner=alice"), std::string::npos);
  EXPECT_TRUE(c->lot_renew(*lot, 3600).ok());
  EXPECT_TRUE(c->lot_terminate(*lot).ok());
  EXPECT_EQ(c->lot_query(*lot).code(), Errc::lot_unknown);
}

TEST_F(IntegrationTest, ChirpLotCapacityEnforced) {
  // Strict server: writes need lots.
  NestServerOptions opts;
  opts.capacity = 10'000'000;
  opts.storage.allow_lotless_writes = false;
  auto strict = NestServer::start(opts);
  ASSERT_TRUE(strict.ok());
  (*strict)->gsi().add_user("alice", "s");
  auto c = ChirpClient::connect("127.0.0.1", (*strict)->chirp_port(),
                                "alice", "s");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->put("/f", "data").code(), Errc::lot_unknown);
  auto lot = c->lot_create(100, 3600);
  ASSERT_TRUE(lot.ok());
  EXPECT_TRUE(c->put("/f", std::string(80, 'x')).ok());
  EXPECT_EQ(c->put("/g", std::string(80, 'x')).code(), Errc::no_space);
  (*strict)->stop();
}

TEST_F(IntegrationTest, ChirpAnonymousCannotCreateLots) {
  auto anon = anon_chirp();
  ASSERT_TRUE(anon.ok());
  EXPECT_EQ(anon->lot_create(1000, 60).code(), Errc::permission_denied);
}

TEST_F(IntegrationTest, ChirpResourceAd) {
  auto c = alice();
  auto ad_text = c->query_ad();
  ASSERT_TRUE(ad_text.ok());
  auto ad = classad::ClassAd::parse(*ad_text);
  ASSERT_TRUE(ad.ok()) << *ad_text;
  EXPECT_EQ(ad->eval_string("Type").value(), "Storage");
  EXPECT_EQ(ad->eval_int("TotalSpace").value(), 100'000'000);
  EXPECT_EQ(ad->eval("Protocols").as_list()->size(), 5u);
}

TEST_F(IntegrationTest, ChirpAclManagement) {
  auto c = alice();
  ASSERT_TRUE(c->mkdir("/shared").ok());
  ASSERT_TRUE(
      c->acl_set("/shared",
                 "[ Principal = \"system:anyuser\"; Rights = \"rli\"; ]")
          .ok());
  auto entries = c->acl_get("/shared");
  ASSERT_TRUE(entries.ok());
  EXPECT_NE(entries->find("system:anyuser"), std::string::npos);
  // Anonymous may now create files under /shared.
  auto anon = anon_chirp();
  EXPECT_TRUE(anon->put("/shared/drop.txt", "anon file").ok());
  // But still not elsewhere.
  EXPECT_EQ(anon->put("/drop.txt", "x").code(), Errc::permission_denied);
}

// ---------- HTTP ----------

TEST_F(IntegrationTest, HttpGetHeadDelete) {
  auto c = alice();
  ASSERT_TRUE(c->put("/web.txt", "http payload").ok());
  HttpClient http("127.0.0.1", server_->http_port());
  auto got = http.get("/web.txt");
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_EQ(got->status, 200);
  EXPECT_EQ(got->body, "http payload");
  auto head = http.head("/web.txt");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->status, 200);
  EXPECT_EQ(head->content_length, 12);
  EXPECT_EQ(http.get("/missing.txt")->status, 404);
  // Anonymous delete: denied by the root ACL.
  EXPECT_EQ(http.del("/web.txt")->status, 403);
}

TEST_F(IntegrationTest, HttpPutRespectsAcls) {
  HttpClient http("127.0.0.1", server_->http_port());
  EXPECT_EQ(http.put("/upload.txt", "data")->status, 403);
  auto c = alice();
  ASSERT_TRUE(c->mkdir("/incoming").ok());
  ASSERT_TRUE(
      c->acl_set("/incoming",
                 "[ Principal = \"system:anyuser\"; Rights = \"rli\"; ]")
          .ok());
  EXPECT_EQ(http.put("/incoming/upload.txt", "data")->status, 201);
  EXPECT_EQ(http.get("/incoming/upload.txt")->body, "data");
}

TEST_F(IntegrationTest, HttpRangeRequests) {
  auto c = alice();
  std::string payload(100'000, 'r');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + i % 26);
  }
  ASSERT_TRUE(c->put("/ranged.bin", payload).ok());
  HttpClient http("127.0.0.1", server_->http_port());

  auto mid = http.get_range("/ranged.bin", 1000, 1999);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->status, 206);
  EXPECT_EQ(mid->body, payload.substr(1000, 1000));

  auto tail = http.get_range("/ranged.bin", 99'000, -1);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->status, 206);
  EXPECT_EQ(tail->body, payload.substr(99'000));

  auto beyond = http.get_range("/ranged.bin", 200'000, -1);
  ASSERT_TRUE(beyond.ok());
  EXPECT_EQ(beyond->status, 416);

  // Range on a full GET without the header still returns 200.
  EXPECT_EQ(http.get("/ranged.bin")->status, 200);
}

// ---------- FTP ----------

TEST_F(IntegrationTest, FtpSessionAndTransfer) {
  auto c = alice();
  ASSERT_TRUE(c->mkdir("/pub").ok());
  ASSERT_TRUE(c->put("/pub/file.dat", "ftp data here").ok());
  auto ftp = FtpClient::connect("127.0.0.1", server_->ftp_port());
  ASSERT_TRUE(ftp.ok()) << ftp.error().to_string();
  EXPECT_TRUE(ftp->cwd("/pub").ok());
  EXPECT_EQ(ftp->pwd().value(), "/pub");
  auto listing = ftp->list();
  ASSERT_TRUE(listing.ok());
  EXPECT_NE(listing->find("file.dat"), std::string::npos);
  auto data = ftp->retr("file.dat");
  ASSERT_TRUE(data.ok()) << data.error().to_string();
  EXPECT_EQ(*data, "ftp data here");
  EXPECT_EQ(ftp->size("file.dat").value(), 13);
  // Anonymous STOR denied by default policy.
  EXPECT_EQ(ftp->stor("up.dat", "x").code(), Errc::permission_denied);
  EXPECT_TRUE(ftp->quit().ok());
}

TEST_F(IntegrationTest, FtpStorAfterAclGrant) {
  auto c = alice();
  ASSERT_TRUE(c->mkdir("/drop").ok());
  ASSERT_TRUE(
      c->acl_set("/drop",
                 "[ Principal = \"system:anyuser\"; Rights = \"rlid\"; ]")
          .ok());
  auto ftp = FtpClient::connect("127.0.0.1", server_->ftp_port());
  ASSERT_TRUE(ftp.ok());
  ASSERT_TRUE(ftp->stor("/drop/up.dat", "stored via ftp").ok());
  EXPECT_EQ(ftp->retr("/drop/up.dat").value(), "stored via ftp");
  EXPECT_TRUE(ftp->dele("/drop/up.dat").ok());
  EXPECT_TRUE(ftp->mkd("/drop/sub").ok());
  EXPECT_TRUE(ftp->rmd("/drop/sub").ok());
}

TEST_F(IntegrationTest, FtpRestResumesDownload) {
  auto c = alice();
  std::string payload(50'000, 'f');
  for (std::size_t i = 0; i < payload.size(); i += 100) {
    payload[i] = static_cast<char>('0' + (i / 100) % 10);
  }
  ASSERT_TRUE(c->put("/resume.bin", payload).ok());
  auto ftp = FtpClient::connect("127.0.0.1", server_->ftp_port());
  ASSERT_TRUE(ftp.ok());
  auto tail = ftp->retr_from("/resume.bin", 30'000);
  ASSERT_TRUE(tail.ok()) << tail.error().to_string();
  EXPECT_EQ(*tail, payload.substr(30'000));
  // REST applies to one transfer only: the next RETR is complete.
  EXPECT_EQ(ftp->retr("/resume.bin")->size(), payload.size());
}

// ---------- GridFTP ----------

TEST_F(IntegrationTest, GridFtpRequiresGsi) {
  auto plain = FtpClient::connect("127.0.0.1", server_->gridftp_port());
  EXPECT_FALSE(plain.ok());  // USER is rejected on the GridFTP endpoint
}

TEST_F(IntegrationTest, GridFtpAuthenticatedTransfer) {
  auto gftp = FtpClient::connect(
      "127.0.0.1", server_->gridftp_port(),
      FtpClient::GsiIdentity{"alice", "alice-secret"});
  ASSERT_TRUE(gftp.ok()) << gftp.error().to_string();
  // Authenticated: full rights via the default policy.
  ASSERT_TRUE(gftp->stor("/grid.dat", "gsi authenticated data").ok());
  EXPECT_EQ(gftp->retr("/grid.dat").value(), "gsi authenticated data");
}

TEST_F(IntegrationTest, GridFtpModeEBlockMode) {
  auto gftp = FtpClient::connect(
      "127.0.0.1", server_->gridftp_port(),
      FtpClient::GsiIdentity{"alice", "alice-secret"});
  ASSERT_TRUE(gftp.ok());
  ASSERT_TRUE(gftp->set_mode_e(true).ok());
  std::string payload(200'000, 'e');
  for (std::size_t i = 0; i < payload.size(); i += 1000) {
    payload[i] = static_cast<char>('0' + (i / 1000) % 10);
  }
  ASSERT_TRUE(gftp->stor("/mode-e.bin", payload).ok());
  auto got = gftp->retr("/mode-e.bin");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got == payload);
}

TEST_F(IntegrationTest, GridFtpBadCredentialRejected) {
  auto bad = FtpClient::connect("127.0.0.1", server_->gridftp_port(),
                                FtpClient::GsiIdentity{"alice", "wrong"});
  EXPECT_FALSE(bad.ok());
}

// Third-party transfer: a manager steers a file between two NeSTs without
// the data passing through the manager (paper Figure 2, step 3).
TEST_F(IntegrationTest, GridFtpThirdPartyTransfer) {
  NestServerOptions opts2;
  opts2.capacity = 100'000'000;
  auto remote = NestServer::start(opts2);
  ASSERT_TRUE(remote.ok());
  (*remote)->gsi().add_user("alice", "alice-secret");

  // Stage a file on the local server.
  auto c = alice();
  const std::string payload(500'000, 't');
  ASSERT_TRUE(c->put("/stage.bin", payload).ok());

  // Manager holds control connections to both.
  auto src = FtpClient::connect(
      "127.0.0.1", server_->gridftp_port(),
      FtpClient::GsiIdentity{"alice", "alice-secret"});
  auto dst = FtpClient::connect(
      "127.0.0.1", (*remote)->gridftp_port(),
      FtpClient::GsiIdentity{"alice", "alice-secret"});
  ASSERT_TRUE(src.ok() && dst.ok());

  // dst listens; src connects to dst's data port.
  auto addr = dst->pasv();
  ASSERT_TRUE(addr.ok());
  ASSERT_TRUE(src->port(addr->first, addr->second).ok());
  // Start the receiver, then the sender, then collect both completions.
  ASSERT_TRUE(dst->begin("STOR", "/stage-copy.bin").ok());
  ASSERT_TRUE(src->begin("RETR", "/stage.bin").ok());
  EXPECT_TRUE(src->finish().ok());
  EXPECT_TRUE(dst->finish().ok());

  // Verify the bytes landed on the remote NeST.
  auto rc = ChirpClient::connect("127.0.0.1", (*remote)->chirp_port(),
                                 "alice", "alice-secret");
  ASSERT_TRUE(rc.ok());
  auto copied = rc->get("/stage-copy.bin");
  ASSERT_TRUE(copied.ok());
  EXPECT_TRUE(*copied == payload);
  (*remote)->stop();
}

// Three-party transfer via the native protocol: the paper's transfer
// manager supports "transparent three- and four-party transfers"; THIRDPUT
// pushes a file NeST-to-NeST with the appliance's own identity.
TEST_F(IntegrationTest, ChirpThirdPartyPush) {
  NestServerOptions remote_opts;
  remote_opts.capacity = 100'000'000;
  auto remote = NestServer::start(remote_opts);
  ASSERT_TRUE(remote.ok());
  // The local appliance's identity must be registered at the remote.
  (*remote)->gsi().add_user("nest@local", "appliance-secret");
  (*remote)->gsi().add_user("alice", "alice-secret");

  NestServerOptions local_opts;
  local_opts.capacity = 100'000'000;
  local_opts.own_subject = "nest@local";
  local_opts.own_secret = "appliance-secret";
  auto local = NestServer::start(local_opts);
  ASSERT_TRUE(local.ok());
  (*local)->gsi().add_user("alice", "alice-secret");

  auto c = ChirpClient::connect("127.0.0.1", (*local)->chirp_port(),
                                "alice", "alice-secret");
  ASSERT_TRUE(c.ok());
  const std::string payload(300'000, '3');
  ASSERT_TRUE(c->put("/src.bin", payload).ok());
  ASSERT_TRUE(c->third_put("/src.bin", "127.0.0.1",
                           (*remote)->chirp_port(), "/pushed.bin")
                  .ok());
  auto rc = ChirpClient::connect("127.0.0.1", (*remote)->chirp_port(),
                                 "alice", "alice-secret");
  ASSERT_TRUE(rc.ok());
  EXPECT_TRUE(*rc->get("/pushed.bin") == payload);

  // Pushing a missing file fails cleanly.
  EXPECT_FALSE(c->third_put("/ghost.bin", "127.0.0.1",
                            (*remote)->chirp_port(), "/x")
                   .ok());
  // Unreachable remote fails cleanly.
  EXPECT_FALSE(c->third_put("/src.bin", "127.0.0.1", 1, "/x").ok());
  (*local)->stop();
  (*remote)->stop();
}

// ---------- NFS ----------

TEST_F(IntegrationTest, NfsMountLookupRead) {
  auto c = alice();
  ASSERT_TRUE(c->mkdir("/export").ok());
  ASSERT_TRUE(c->put("/export/data.txt", "nfs visible content").ok());

  auto nfs = NfsClient::connect("127.0.0.1", server_->nfs_port());
  ASSERT_TRUE(nfs.ok());
  auto root = nfs->mount("/export");
  ASSERT_TRUE(root.ok()) << root.error().to_string();
  auto looked = nfs->lookup(*root, "data.txt");
  ASSERT_TRUE(looked.ok());
  EXPECT_EQ(looked->second.size, 19);
  EXPECT_FALSE(looked->second.is_dir);
  auto content = nfs->read_file(*root, "data.txt");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "nfs visible content");
  auto names = nfs->readdir(*root);
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 1u);
  EXPECT_EQ((*names)[0], "data.txt");
}

TEST_F(IntegrationTest, NfsBlockReads) {
  auto c = alice();
  std::string data(20'000, 'n');
  data[8192] = 'X';
  ASSERT_TRUE(c->put("/blocks.bin", data).ok());
  auto nfs = NfsClient::connect("127.0.0.1", server_->nfs_port());
  auto root = nfs->mount("/");
  ASSERT_TRUE(root.ok());
  auto looked = nfs->lookup(*root, "blocks.bin");
  ASSERT_TRUE(looked.ok());
  // Reads are capped at the 8 KB NFS block size.
  auto block = nfs->read(looked->first, 8192, 8192);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block->size(), 8192u);
  EXPECT_EQ((*block)[0], 'X');
}

TEST_F(IntegrationTest, NfsAnonymousWriteDeniedThenGranted) {
  auto nfs = NfsClient::connect("127.0.0.1", server_->nfs_port());
  auto root = nfs->mount("/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(nfs->create(*root, "anon.txt").code(), Errc::permission_denied);
  EXPECT_EQ(nfs->mkdir(*root, "anondir").code(), Errc::permission_denied);

  auto c = alice();
  ASSERT_TRUE(c->mkdir("/nfsrw").ok());
  ASSERT_TRUE(
      c->acl_set("/nfsrw",
                 "[ Principal = \"system:anyuser\"; Rights = \"rwlid\"; ]")
          .ok());
  auto dir = nfs->mount("/nfsrw");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(nfs->write_file(*dir, "job-output.dat",
                              std::string(30'000, 'o'))
                  .ok());
  auto verify = c->get("/nfsrw/job-output.dat");
  ASSERT_TRUE(verify.ok());
  EXPECT_EQ(verify->size(), 30'000u);
  EXPECT_TRUE(nfs->remove(*dir, "job-output.dat").ok());
}

TEST_F(IntegrationTest, NfsStaleHandleAndMissingFiles) {
  auto nfs = NfsClient::connect("127.0.0.1", server_->nfs_port());
  EXPECT_FALSE(nfs->mount("/nonexistent").ok());
  auto root = nfs->mount("/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(nfs->lookup(*root, "ghost.txt").code(), Errc::not_found);
  NfsClient::Fh bogus(protocol::kFhSize, '\x7f');
  EXPECT_FALSE(nfs->getattr(bogus).ok());
}

TEST_F(IntegrationTest, NfsRenameAndStatfs) {
  auto c = alice();
  ASSERT_TRUE(c->mkdir("/mv").ok());
  ASSERT_TRUE(
      c->acl_set("/mv",
                 "[ Principal = \"system:anyuser\"; Rights = \"rwlid\"; ]")
          .ok());
  ASSERT_TRUE(c->put("/mv/before.txt", "renamed over nfs").ok());
  auto nfs = NfsClient::connect("127.0.0.1", server_->nfs_port());
  auto dir = nfs->mount("/mv");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(nfs->rename(*dir, "before.txt", *dir, "after.txt").ok());
  EXPECT_EQ(nfs->lookup(*dir, "before.txt").code(), Errc::not_found);
  EXPECT_EQ(nfs->read_file(*dir, "after.txt").value(), "renamed over nfs");
}

TEST_F(IntegrationTest, ChirpGroupLotViaWire) {
  auto c = alice();  // alice is in group "physics"
  auto lot = c->lot_create(1'000'000, 3600, /*group=*/true);
  ASSERT_TRUE(lot.ok()) << lot.error().to_string();
  auto desc = c->lot_query(*lot);
  ASSERT_TRUE(desc.ok());
  EXPECT_NE(desc->find("owner=physics"), std::string::npos);
  // Another physics member can use and query it.
  server_->gsi().add_user("carol", "cs", {"physics"});
  auto carol = ChirpClient::connect("127.0.0.1", server_->chirp_port(),
                                    "carol", "cs");
  ASSERT_TRUE(carol.ok());
  EXPECT_TRUE(carol->lot_query(*lot).ok());
  EXPECT_TRUE(carol->lot_terminate(*lot).ok());
}

TEST_F(IntegrationTest, HttpKeepAliveSessions) {
  auto c = alice();
  ASSERT_TRUE(c->put("/ka.txt", "keep alive body").ok());
  auto stream = net::TcpStream::connect("127.0.0.1", server_->http_port());
  ASSERT_TRUE(stream.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        stream
            ->write_all(std::string("GET /ka.txt HTTP/1.0\r\n"
                                    "Connection: keep-alive\r\n\r\n"))
            .ok());
    auto status = stream->read_line();
    ASSERT_TRUE(status.ok());
    EXPECT_NE(status->find("200"), std::string::npos);
    std::int64_t content_length = -1;
    while (true) {
      auto header = stream->read_line();
      ASSERT_TRUE(header.ok());
      if (header->empty()) break;
      if (starts_with_icase(*header, "content-length:")) {
        content_length =
            parse_int(header->substr(header->find(':') + 1)).value_or(-1);
      }
    }
    ASSERT_EQ(content_length, 15);
    std::string body(15, '\0');
    ASSERT_TRUE(stream->read_exact(std::span(body.data(), 15)).ok());
    EXPECT_EQ(body, "keep alive body");
  }
}

// ---------- Cross-protocol ----------

// The same bytes written with Chirp are served identically by HTTP, FTP,
// GridFTP, and NFS: the virtual protocol layer at work.
TEST_F(IntegrationTest, CrossProtocolVisibility) {
  auto c = alice();
  const std::string payload = "one file, five protocols";
  ASSERT_TRUE(c->put("/all.txt", payload).ok());

  HttpClient http("127.0.0.1", server_->http_port());
  EXPECT_EQ(http.get("/all.txt")->body, payload);

  auto ftp = FtpClient::connect("127.0.0.1", server_->ftp_port());
  EXPECT_EQ(ftp->retr("/all.txt").value(), payload);

  auto gftp = FtpClient::connect(
      "127.0.0.1", server_->gridftp_port(),
      FtpClient::GsiIdentity{"alice", "alice-secret"});
  EXPECT_EQ(gftp->retr("/all.txt").value(), payload);

  auto nfs = NfsClient::connect("127.0.0.1", server_->nfs_port());
  auto root = nfs->mount("/");
  EXPECT_EQ(nfs->read_file(*root, "all.txt").value(), payload);
}

// Per-protocol accounting feeds the transfer manager across all handlers.
TEST_F(IntegrationTest, TransferManagerSeesAllProtocols) {
  auto c = alice();
  ASSERT_TRUE(c->put("/meter.bin", std::string(100'000, 'm')).ok());
  HttpClient http("127.0.0.1", server_->http_port());
  (void)http.get("/meter.bin");
  auto ftp = FtpClient::connect("127.0.0.1", server_->ftp_port());
  (void)ftp->retr("/meter.bin");
  const auto& per_class = server_->tm().meter().per_class();
  EXPECT_GT(per_class.at("chirp"), 0);
  EXPECT_GT(per_class.at("http"), 0);
  EXPECT_GT(per_class.at("ftp"), 0);
}

TEST_F(IntegrationTest, ConcurrentClientsInterleave) {
  auto c = alice();
  ASSERT_TRUE(c->put("/concurrent.bin", std::string(1'000'000, 'c')).ok());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([this, &failures] {
      auto cc = ChirpClient::connect("127.0.0.1", server_->chirp_port(),
                                     "alice", "alice-secret");
      if (!cc.ok()) {
        ++failures;
        return;
      }
      auto got = cc->get("/concurrent.bin");
      if (!got.ok() || got->size() != 1'000'000u) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace nest

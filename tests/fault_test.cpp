// Failpoint subsystem tests: action-spec grammar, registry arming surfaces
// (direct, list, env), firing semantics (after/prob/sleep/crash), the
// journal/storage/transfer integration points, and the Chirp FAULT op.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "client/chirp_client.h"
#include "common/clock.h"
#include "fault/failpoint.h"
#include "journal/journal.h"
#include "server/nest_server.h"
#include "storage/extentfs.h"
#include "storage/localfs.h"
#include "storage/memfs.h"
#include "storage/storage_manager.h"

namespace nest {
namespace {

namespace fsys = std::filesystem;

// Every test runs against the process-wide registry: always leave it clean.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::registry().disarm_all(); }
  void TearDown() override { fault::registry().disarm_all(); }
};

// ---------- action-spec grammar ----------

TEST_F(FaultTest, ParseAcceptsTheDocumentedGrammar) {
  auto off = fault::parse_action("off");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->kind, fault::Action::Kind::off);

  auto ret = fault::parse_action("return");
  ASSERT_TRUE(ret.ok());
  EXPECT_EQ(ret->kind, fault::Action::Kind::ret);
  EXPECT_EQ(ret->errc, Errc::io_error);

  auto named = fault::parse_action("return(no_space)");
  ASSERT_TRUE(named.ok());
  EXPECT_EQ(named->errc, Errc::no_space);

  auto alias = fault::parse_action("return(EPIPE)");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(alias->errc, Errc::connection_closed);

  auto prob = fault::parse_action("prob(0.25)return(EIO)");
  ASSERT_TRUE(prob.ok());
  EXPECT_DOUBLE_EQ(prob->prob, 0.25);
  EXPECT_EQ(prob->errc, Errc::io_error);

  auto after = fault::parse_action("after(3)crash");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->after, 3u);
  EXPECT_EQ(after->kind, fault::Action::Kind::crash);

  auto both = fault::parse_action("after(2)prob(0.5)sleep(10)");
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->after, 2u);
  EXPECT_DOUBLE_EQ(both->prob, 0.5);
  EXPECT_EQ(both->sleep_ms, 10);

  auto empty = fault::parse_action("return()");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->errc, Errc::io_error);
}

TEST_F(FaultTest, ParseRejectsMalformedSpecs) {
  for (const char* bad :
       {"nope", "return(bogus_err)", "prob(2)return", "prob(x)return",
        "after(-1)return", "sleep(999999)", "sleep(x)", "crashx",
        "return(EIO)junk", "prob(0.5)", "after(3)"}) {
    auto a = fault::parse_action(bad);
    EXPECT_FALSE(a.ok()) << "spec '" << bad << "' should not parse";
    if (!a.ok()) {
      EXPECT_EQ(a.error().code, Errc::invalid_argument);
    }
  }
}

// ---------- firing semantics ----------

TEST_F(FaultTest, DisarmedPointNeverFires) {
  auto& fp = fault::registry().point("test.idle");
  EXPECT_FALSE(fp.armed());
  bool fired = false;
  NEST_FAILPOINT("test.idle", fired = true);
  EXPECT_FALSE(fired);
  EXPECT_EQ(fp.trips(), 0u);
}

TEST_F(FaultTest, ReturnActionInjectsTheNamedError) {
  ASSERT_TRUE(fault::registry().arm("test.ret", "return(ENOSPC)").ok());
  std::optional<Error> got;
  NEST_FAILPOINT("test.ret", got = err);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code, Errc::no_space);
  EXPECT_NE(got->message.find("test.ret"), std::string::npos);
}

TEST_F(FaultTest, AfterSkipsLeadingEvaluations) {
  ASSERT_TRUE(fault::registry().arm("test.after", "after(3)return").ok());
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    NEST_FAILPOINT("test.after", ++fired);
  }
  // Skips exactly 3, then fires every time.
  EXPECT_EQ(fired, 7);
  // Re-arming resets the budget.
  ASSERT_TRUE(fault::registry().arm("test.after", "after(3)return").ok());
  fired = 0;
  for (int i = 0; i < 4; ++i) {
    NEST_FAILPOINT("test.after", ++fired);
  }
  EXPECT_EQ(fired, 1);
}

TEST_F(FaultTest, ProbZeroAndOneAreDegenerate) {
  ASSERT_TRUE(fault::registry().arm("test.p0", "prob(0)return").ok());
  ASSERT_TRUE(fault::registry().arm("test.p1", "prob(1)return").ok());
  int p0 = 0;
  int p1 = 0;
  for (int i = 0; i < 200; ++i) {
    NEST_FAILPOINT("test.p0", ++p0);
    NEST_FAILPOINT("test.p1", ++p1);
  }
  EXPECT_EQ(p0, 0);
  EXPECT_EQ(p1, 200);
}

TEST_F(FaultTest, ProbIsDeterministicUnderSeed) {
  auto trips_with_seed = [&](std::uint64_t seed) {
    fault::registry().seed(seed);
    // arm after seed: arming does not reset the rng, seeding does
    EXPECT_TRUE(fault::registry().arm("test.prob", "prob(0.3)return").ok());
    int fired = 0;
    for (int i = 0; i < 100; ++i) {
      NEST_FAILPOINT("test.prob", ++fired);
    }
    return fired;
  };
  const int a = trips_with_seed(42);
  const int b = trips_with_seed(42);
  const int c = trips_with_seed(43);
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 5);   // ~30 of 100
  EXPECT_LT(a, 70);
  (void)c;  // different seed may or may not differ; only equality is contractual
}

TEST_F(FaultTest, SleepDelaysButDoesNotFail) {
  ASSERT_TRUE(fault::registry().arm("test.sleep", "sleep(50)").ok());
  bool fired = false;
  const auto t0 = std::chrono::steady_clock::now();
  NEST_FAILPOINT("test.sleep", fired = true);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_FALSE(fired);  // sleep does not run the failure statement
  EXPECT_GE(ms, 45);
  EXPECT_EQ(fault::registry().point("test.sleep").trips(), 1u);
}

TEST_F(FaultTest, CrashActionKillsTheProcess) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        (void)fault::registry().arm("test.crash", "crash");
        NEST_FAILPOINT("test.crash", (void)err);
      },
      ::testing::ExitedWithCode(134), "");
}

// ---------- registry surfaces ----------

TEST_F(FaultTest, ArmManyParsesSemicolonLists) {
  ASSERT_TRUE(fault::registry()
                  .arm_many("test.a=return(EIO); test.b=after(2)sleep(1) ;;")
                  .ok());
  EXPECT_TRUE(fault::registry().point("test.a").armed());
  EXPECT_TRUE(fault::registry().point("test.b").armed());
  EXPECT_FALSE(fault::registry().arm_many("test.a").ok());        // no '='
  EXPECT_FALSE(fault::registry().arm_many("test.a=nope").ok());   // bad spec
  ASSERT_TRUE(fault::registry().arm_many("test.a=off").ok());
  EXPECT_FALSE(fault::registry().point("test.a").armed());
}

TEST_F(FaultTest, ApplyEnvArmsAndToleratesGarbage) {
  ::setenv("NEST_FAILPOINTS", "test.env=return(ETIMEDOUT)", 1);
  fault::registry().apply_env();
  EXPECT_TRUE(fault::registry().point("test.env").armed());
  EXPECT_EQ(fault::registry().point("test.env").spec(), "return(ETIMEDOUT)");
  // Malformed env must not throw or abort — logged and ignored.
  ::setenv("NEST_FAILPOINTS", "garbage-no-equals", 1);
  fault::registry().apply_env();
  ::unsetenv("NEST_FAILPOINTS");
}

TEST_F(FaultTest, ListReportsSpecsAndCounters) {
  ASSERT_TRUE(fault::registry().arm("test.listed", "return").ok());
  for (int i = 0; i < 3; ++i) {
    NEST_FAILPOINT("test.listed", (void)err);
  }
  bool found = false;
  for (const auto& info : fault::registry().list()) {
    if (info.name != "test.listed") continue;
    found = true;
    EXPECT_EQ(info.spec, "return");
    EXPECT_EQ(info.evals, 3u);
    EXPECT_EQ(info.trips, 3u);
  }
  EXPECT_TRUE(found);
}

// ---------- journal integration ----------

class FaultDirTest : public FaultTest {
 protected:
  void SetUp() override {
    FaultTest::SetUp();
    dir_ = (fsys::temp_directory_path() /
            ("nest_fault_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fsys::remove_all(dir_);
    fsys::create_directories(dir_);
  }
  void TearDown() override {
    fsys::remove_all(dir_);
    FaultTest::TearDown();
  }
  std::string dir_;
};

TEST_F(FaultDirTest, JournalAppendFailpointKillsTheJournal) {
  ManualClock clock;
  journal::JournalOptions opts;
  opts.dir = dir_ + "/j";
  auto j = journal::Journal::open(clock, opts);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE((*j)->append_commit("rec1").ok());
  ASSERT_TRUE(fault::registry().arm("journal.append", "return").ok());
  EXPECT_FALSE((*j)->append_commit("rec2").ok());
  EXPECT_TRUE((*j)->dead());
  fault::registry().disarm_all();
  // Dead is permanent until reopen; the refused record is gone.
  EXPECT_FALSE((*j)->append_commit("rec3").ok());
  j->reset();
  auto j2 = journal::Journal::open(clock, opts);
  ASSERT_TRUE(j2.ok());
  std::size_t replayed = 0;
  ASSERT_TRUE((*j2)
                  ->replay([&](journal::Lsn, std::string_view) {
                    ++replayed;
                    return Status{};
                  })
                  .ok());
  EXPECT_EQ(replayed, 1u);
}

TEST_F(FaultDirTest, JournalFsyncFailpointFailsTheBarrier) {
  ManualClock clock;
  journal::JournalOptions opts;
  opts.dir = dir_ + "/j";
  opts.sync = journal::SyncMode::always;
  auto j = journal::Journal::open(clock, opts);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE((*j)->append_commit("ok").ok());
  ASSERT_TRUE(fault::registry().arm("journal.fsync", "return").ok());
  EXPECT_FALSE((*j)->append_commit("doomed").ok());
  EXPECT_TRUE((*j)->dead());
}

// ---------- filesystem integration ----------

TEST_F(FaultDirTest, LocalFsIoFailpointsInjectErrors) {
  auto lfs = storage::LocalFs::open_root(dir_, 1'000'000);
  ASSERT_TRUE(lfs.ok());
  {
    auto h = (*lfs)->create("/f");
    ASSERT_TRUE(h.ok());
    const std::string data = "hello";
    ASSERT_TRUE(h->get()->pwrite(std::span(data.data(), data.size()), 0).ok());
  }
  ASSERT_TRUE(fault::registry().arm("fs.pread", "return(EIO)").ok());
  {
    auto h = (*lfs)->open("/f");
    ASSERT_TRUE(h.ok());
    char buf[8];
    auto r = h->get()->pread(std::span(buf, sizeof buf), 0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::io_error);
  }
  fault::registry().disarm_all();
  ASSERT_TRUE(fault::registry().arm("fs.create", "return(ENOSPC)").ok());
  EXPECT_EQ((*lfs)->create("/g").error().code, Errc::no_space);
  fault::registry().disarm_all();
  ASSERT_TRUE(fault::registry().arm("fs.unlink", "return(EACCES)").ok());
  EXPECT_EQ((*lfs)->remove("/f").code(), Errc::permission_denied);
  fault::registry().disarm_all();
  EXPECT_TRUE((*lfs)->remove("/f").ok());
}

TEST_F(FaultTest, ExtentFsIoFailpointsInjectErrors) {
  ManualClock clock;
  storage::ExtentFs efs(clock, 4 * 1024 * 1024);
  ASSERT_TRUE(fault::registry().arm("fs.pwrite", "after(1)return(EIO)").ok());
  auto h = efs.create("/f");
  ASSERT_TRUE(h.ok());
  const std::string data(100, 'x');
  // First write passes the failpoint budget, second is injected.
  ASSERT_TRUE(h->get()->pwrite(std::span(data.data(), data.size()), 0).ok());
  auto w = h->get()->pwrite(std::span(data.data(), data.size()), 100);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.error().code, Errc::io_error);
  fault::registry().disarm_all();
  // The file is still readable and the first write's bytes are intact.
  char buf[100];
  auto r = h->get()->pread(std::span(buf, sizeof buf), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 100);
}

// ---------- server end-to-end (Chirp FAULT op + live injection) ----------

class FaultServerTest : public FaultTest {
 protected:
  void SetUp() override {
    FaultTest::SetUp();
    server::NestServerOptions opts;
    opts.capacity = 10'000'000;
    opts.http_port = -1;
    opts.ftp_port = -1;
    opts.gridftp_port = -1;
    opts.nfs_port = -1;
    auto server = server::NestServer::start(opts);
    ASSERT_TRUE(server.ok()) << server.error().to_string();
    server_ = std::move(server.value());
    server_->gsi().add_user("alice", "alice-secret", {"physics"});
    server_->gsi().add_user("root", "root-secret");
  }
  void TearDown() override {
    server_->stop();
    FaultTest::TearDown();
  }
  Result<client::ChirpClient> connect(const std::string& user,
                                      const std::string& secret) {
    return client::ChirpClient::connect("127.0.0.1", server_->chirp_port(),
                                        user, secret);
  }
  std::unique_ptr<server::NestServer> server_;
};

TEST_F(FaultServerTest, FaultOpsAreSuperuserOnly) {
  auto alice = connect("alice", "alice-secret");
  ASSERT_TRUE(alice.ok());
  EXPECT_EQ(alice->fault_set("test.x", "return").code(),
            Errc::permission_denied);
  EXPECT_EQ(alice->fault_list().error().code, Errc::permission_denied);

  auto root = connect("root", "root-secret");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->fault_set("test.x", "return").ok());
  auto listing = root->fault_list();
  ASSERT_TRUE(listing.ok());
  EXPECT_NE(listing->find("test.x return"), std::string::npos);
  EXPECT_TRUE(root->fault_set("test.x", "off").ok());
  auto off = root->fault_list();
  ASSERT_TRUE(off.ok());
  EXPECT_NE(off->find("test.x off"), std::string::npos);
}

TEST_F(FaultServerTest, BadSpecIsRejectedOverTheWire) {
  auto root = connect("root", "root-secret");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->fault_set("test.x", "explode").code(),
            Errc::invalid_argument);
}

TEST_F(FaultServerTest, TransferGrantFaultFailsPutsUntilDisarmed) {
  auto root = connect("root", "root-secret");
  ASSERT_TRUE(root.ok());
  auto alice = connect("alice", "alice-secret");
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(alice->put("/before", "data").ok());
  ASSERT_TRUE(root->fault_set("transfer.grant", "return(EAGAIN)").ok());
  EXPECT_FALSE(alice->put("/during", "data").ok());
  ASSERT_TRUE(root->fault_set("transfer.grant", "off").ok());
  // A refused transfer may leave the data connection desynced; a fresh
  // session must work again once the fault is cleared.
  auto alice2 = connect("alice", "alice-secret");
  ASSERT_TRUE(alice2.ok());
  EXPECT_TRUE(alice2->put("/after", "data").ok());
  auto got = alice2->get("/before");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "data");
}

TEST_F(FaultServerTest, AcceptDropRefusesNewConnectionsOnly) {
  auto root = connect("root", "root-secret");
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(root->fault_set("net.accept", "return").ok());
  // New connections are dropped at accept; the drill connection (already
  // accepted) keeps working.
  auto refused = connect("alice", "alice-secret");
  EXPECT_FALSE(refused.ok());
  ASSERT_TRUE(root->fault_set("net.accept", "off").ok());
  auto again = connect("alice", "alice-secret");
  EXPECT_TRUE(again.ok());
}

// ---------- zero-copy data path (net.writev / net.sendfile) ----------

// Loopback pair for driving TcpStream directly.
struct FaultStreamPair {
  net::TcpStream a;
  net::TcpStream b;
};

FaultStreamPair fault_stream_pair() {
  auto listener = net::TcpListener::bind(0);
  EXPECT_TRUE(listener.ok());
  auto client = net::TcpStream::connect("127.0.0.1", listener->port());
  EXPECT_TRUE(client.ok());
  auto served = listener->accept();
  EXPECT_TRUE(served.ok());
  return FaultStreamPair{std::move(client.value()),
                         std::move(served.value())};
}

TEST_F(FaultTest, WritevFailpointFailsCoalescedSends) {
  auto pair = fault_stream_pair();
  ASSERT_TRUE(fault::registry().arm("net.writev", "return(EPIPE)").ok());
  const std::string head = "HTTP/1.0 200 OK\r\n\r\n";
  const std::string body = "payload";
  EXPECT_EQ(pair.a
                .send_vecs({std::span<const char>(head.data(), head.size()),
                            std::span<const char>(body.data(), body.size())})
                .code(),
            Errc::connection_closed);
  fault::registry().disarm_all();
  EXPECT_TRUE(pair.a
                  .send_vecs({std::span<const char>(head.data(), head.size()),
                              std::span<const char>(body.data(), body.size())})
                  .ok());
}

TEST_F(FaultDirTest, SendfileFailpointFailsZeroCopySends) {
  const std::string path = dir_ + "/f";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string data(4096, 'z');
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    std::fclose(f);
  }
  auto pair = fault_stream_pair();
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(fault::registry().arm("net.sendfile", "return(EIO)").ok());
  EXPECT_EQ(pair.a.send_file(fd, 0, 4096).error().code, Errc::io_error);
  fault::registry().disarm_all();
  auto sent = pair.a.send_file(fd, 0, 4096);
  ::close(fd);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(*sent, 4096);
}

// ---------- accept backoff (net.accept_err) ----------

TEST_F(FaultServerTest, FdExhaustionBacksOffInsteadOfSpinningOrDying) {
  auto& fp = fault::registry().point("net.accept_err");
  ASSERT_TRUE(fault::registry().arm("net.accept_err", "return(EMFILE)").ok());
  const auto before = fp.trips();
  // The acceptor is already parked inside a blocking accept, past the
  // point's check. One plain connection releases it, so its next accept
  // call evaluates the armed point.
  auto nudge = net::TcpStream::connect("127.0.0.1", server_->chirp_port());
  ASSERT_TRUE(nudge.ok());
  // Let the acceptor retry under the armed point. With exponential backoff
  // (1→200 ms) ~400 ms admits only a handful of attempts; a busy-spin
  // would rack up tens of thousands, and the pre-fix acceptor would have
  // exited on the first one.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const auto attempts = fp.trips() - before;
  EXPECT_GE(attempts, 2u);
  EXPECT_LE(attempts, 50u);
  fault::registry().disarm_all();
  // The acceptor thread survived the drill: new connections are served.
  auto alice = connect("alice", "alice-secret");
  ASSERT_TRUE(alice.ok());
  EXPECT_TRUE(alice->put("/after-exhaustion", "data").ok());
}

}  // namespace
}  // namespace nest

// Recovery tests for the durable metadata journal: record codec, torn-tail
// truncation, snapshot + tail replay, crash-point fault injection, group
// commit, and a full server restart over Chirp. The binary carries the
// `recovery` CTest label so tier-1 can rerun it under asan.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "client/chirp_client.h"
#include "common/clock.h"
#include "fault/failpoint.h"
#include "journal/crc32c.h"
#include "journal/journal.h"
#include "journal/record.h"
#include "server/nest_server.h"
#include "storage/memfs.h"
#include "storage/storage_manager.h"

namespace nest {
namespace {

namespace fs = std::filesystem;

storage::Principal alice() {
  return storage::Principal{.name = "alice",
                            .groups = {"physics"},
                            .authenticated = true,
                            .protocol = "chirp"};
}
storage::Principal bob() {
  return storage::Principal{.name = "bob",
                            .groups = {},
                            .authenticated = true,
                            .protocol = "chirp"};
}
storage::Principal carol() {
  return storage::Principal{.name = "carol",
                            .groups = {},
                            .authenticated = true,
                            .protocol = "chirp"};
}

// Fresh scratch directory per test; removed on teardown.
class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("nest_journal_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

// ---------- crc32c / record codec ----------

TEST(Crc32c, KnownVector) {
  // Standard CRC-32C check value.
  const std::string msg = "123456789";
  EXPECT_EQ(journal::crc32c(msg.data(), msg.size()), 0xE3069283u);
  EXPECT_NE(journal::crc32c(msg.data(), msg.size()),
            journal::crc32c(msg.data(), msg.size() - 1));
}

TEST(RecordCodec, RoundTrip) {
  journal::RecordWriter w;
  w.u8(7);
  w.u32(0xdeadbeef);
  w.u64(1ull << 60);
  w.i64(-42);
  w.str("hello");
  w.str("");  // empty strings are legal
  const std::string bytes = w.take();

  journal::RecordReader r(bytes);
  EXPECT_EQ(r.u8().value(), 7);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 1ull << 60);
  EXPECT_EQ(r.i64().value(), -42);
  EXPECT_EQ(r.str().value(), "hello");
  EXPECT_EQ(r.str().value(), "");
  EXPECT_TRUE(r.done());
  // Underflow fails instead of misparsing.
  EXPECT_EQ(r.u32().code(), Errc::protocol_error);
}

TEST(RecordCodec, TruncatedStringRejected) {
  journal::RecordWriter w;
  w.str("payload");
  std::string bytes = w.take();
  bytes.resize(bytes.size() - 2);
  journal::RecordReader r(bytes);
  EXPECT_EQ(r.str().code(), Errc::protocol_error);
}

// ---------- journal append / replay ----------

TEST_F(JournalTest, AppendReplayAcrossReopen) {
  ManualClock clock;
  journal::JournalOptions opts;
  opts.dir = dir_;
  {
    auto j = journal::Journal::open(clock, opts);
    ASSERT_TRUE(j.ok()) << j.error().to_string();
    for (int i = 1; i <= 5; ++i) {
      auto lsn = (*j)->append_commit("record-" + std::to_string(i));
      ASSERT_TRUE(lsn.ok());
      EXPECT_EQ(*lsn, static_cast<journal::Lsn>(i));
    }
    const auto st = (*j)->stats();
    EXPECT_EQ(st.last_lsn, 5u);
    EXPECT_EQ(st.durable_lsn, 5u);
  }
  auto j = journal::Journal::open(clock, opts);
  ASSERT_TRUE(j.ok());
  std::vector<std::pair<journal::Lsn, std::string>> got;
  ASSERT_TRUE((*j)
                  ->replay([&](journal::Lsn lsn, std::string_view p) {
                    got.emplace_back(lsn, std::string(p));
                    return Status{};
                  })
                  .ok());
  ASSERT_EQ(got.size(), 5u);
  for (int i = 1; i <= 5; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i - 1)].first,
              static_cast<journal::Lsn>(i));
    EXPECT_EQ(got[static_cast<std::size_t>(i - 1)].second,
              "record-" + std::to_string(i));
  }
  // The append head continues the sequence.
  EXPECT_EQ((*j)->append_commit("record-6").value(), 6u);
}

TEST_F(JournalTest, TornTailTruncatedAtFirstBadChecksum) {
  ManualClock clock;
  journal::JournalOptions opts;
  opts.dir = dir_;
  std::string seg_path;
  {
    auto j = journal::Journal::open(clock, opts);
    ASSERT_TRUE(j.ok());
    for (int i = 1; i <= 5; ++i)
      ASSERT_TRUE((*j)->append_commit("rec" + std::to_string(i)).ok());
  }
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.path().extension() == ".wal" && fs::file_size(e.path()) > 16)
      seg_path = e.path().string();
  }
  ASSERT_FALSE(seg_path.empty());
  // Flip a payload byte inside the 4th frame. Layout: 16-byte segment
  // header, then frames of 16 + payload ("recN" = 4 bytes) = 20 bytes.
  {
    std::fstream f(seg_path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(16 + 3 * 20 + 17);
    f.put('X');
  }
  auto j = journal::Journal::open(clock, opts);
  ASSERT_TRUE(j.ok());
  std::vector<std::string> got;
  ASSERT_TRUE((*j)
                  ->replay([&](journal::Lsn, std::string_view p) {
                    got.emplace_back(p);
                    return Status{};
                  })
                  .ok());
  // Records before the corruption survive; the tail is gone.
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got.back(), "rec3");
  EXPECT_EQ((*j)->stats().last_lsn, 3u);
  // The truncated log accepts new appends at the right LSN.
  EXPECT_EQ((*j)->append_commit("rec4b").value(), 4u);
}

TEST_F(JournalTest, CorruptSegmentDropsLaterSegments) {
  ManualClock clock;
  journal::JournalOptions opts;
  opts.dir = dir_;
  opts.segment_bytes = 1;  // roll on every flush: one record per segment
  {
    auto j = journal::Journal::open(clock, opts);
    ASSERT_TRUE(j.ok());
    for (int i = 1; i <= 3; ++i)
      ASSERT_TRUE((*j)->append_commit("seg" + std::to_string(i)).ok());
    EXPECT_GE((*j)->stats().segment_count, 3);
  }
  // Corrupt the segment holding record 2; record 3's segment becomes
  // unreachable (it cannot contain acknowledged records if an earlier
  // write never completed) and must be discarded.
  std::string victim;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.path().filename().string().rfind("seg-", 0) == 0 &&
        e.path().filename().string().find("0000000000000002") !=
            std::string::npos) {
      victim = e.path().string();
    }
  }
  ASSERT_FALSE(victim.empty());
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16 + 17);
    f.put('X');
  }
  auto j = journal::Journal::open(clock, opts);
  ASSERT_TRUE(j.ok());
  std::vector<std::string> got;
  ASSERT_TRUE((*j)
                  ->replay([&](journal::Lsn, std::string_view p) {
                    got.emplace_back(p);
                    return Status{};
                  })
                  .ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "seg1");
  EXPECT_EQ((*j)->append_commit("seg2b").value(), 2u);
}

TEST_F(JournalTest, GroupCommitBatchesFsyncs) {
  journal::JournalOptions opts;
  opts.dir = dir_;
  opts.sync = journal::SyncMode::group;
  opts.commit_interval = 2 * kMillisecond;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  {
    auto j = journal::Journal::open(RealClock::instance(), opts);
    ASSERT_TRUE(j.ok());
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&j, t] {
        for (int i = 0; i < kPerThread; ++i) {
          auto lsn = (*j)->append_commit("t" + std::to_string(t) + "-" +
                                         std::to_string(i));
          ASSERT_TRUE(lsn.ok());
        }
      });
    }
    for (auto& w : workers) w.join();
    const auto st = (*j)->stats();
    EXPECT_EQ(st.appends, static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(st.durable_lsn, st.last_lsn);
    // The whole point of group commit: far fewer fsyncs than commits.
    EXPECT_LT(st.fsyncs, st.appends);
  }
  auto j = journal::Journal::open(RealClock::instance(), opts);
  ASSERT_TRUE(j.ok());
  std::size_t count = 0;
  ASSERT_TRUE((*j)
                  ->replay([&](journal::Lsn, std::string_view) {
                    ++count;
                    return Status{};
                  })
                  .ok());
  EXPECT_EQ(count, static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(JournalOptionsEnv, CrashAfterFromEnvironment) {
  ::setenv("JOURNAL_CRASH_AFTER", "7", 1);
  journal::JournalOptions opts;
  opts.apply_env();
  EXPECT_EQ(opts.crash_after_frames, 7);
  ::unsetenv("JOURNAL_CRASH_AFTER");
  opts.crash_after_frames = -1;
  opts.apply_env();
  EXPECT_EQ(opts.crash_after_frames, -1);
}

// Regression for the JOURNAL_CRASH_AFTER subsumption: the legacy env shim
// and its replacement — NEST_FAILPOINTS=journal.crash=after(n)return() —
// must produce identical torn-tail semantics end-to-end (n frames
// acknowledged and recoverable, the journal dead afterwards).
TEST_F(JournalTest, EnvCrashShimAndCrashFailpointAgree) {
  const auto run = [&](const std::string& jdir) {
    ManualClock clock;
    journal::JournalOptions opts;
    opts.dir = jdir;
    opts.apply_env();  // legacy surface; a no-op for the failpoint run
    auto j = journal::Journal::open(clock, opts);
    EXPECT_TRUE(j.ok());
    int acked = 0;
    for (int i = 0; i < 6; ++i) {
      if ((*j)->append_commit("rec" + std::to_string(i)).ok()) ++acked;
    }
    EXPECT_TRUE((*j)->dead());
    return acked;
  };
  const auto recovered = [&](const std::string& jdir) {
    ManualClock clock;
    journal::JournalOptions opts;
    opts.dir = jdir;
    auto j = journal::Journal::open(clock, opts);
    EXPECT_TRUE(j.ok());
    std::size_t n = 0;
    (void)(*j)->replay([&](journal::Lsn, std::string_view) {
      ++n;
      return Status{};
    });
    return n;
  };

  ::setenv("JOURNAL_CRASH_AFTER", "3", 1);
  const int legacy_acked = run(dir_ + "_legacy");
  ::unsetenv("JOURNAL_CRASH_AFTER");

  fault::registry().disarm_all();
  ::setenv("NEST_FAILPOINTS", "journal.crash=after(3)return()", 1);
  fault::registry().apply_env();
  ::unsetenv("NEST_FAILPOINTS");
  const int fp_acked = run(dir_ + "_fp");
  fault::registry().disarm_all();

  EXPECT_EQ(legacy_acked, 3);
  EXPECT_EQ(fp_acked, legacy_acked);
  EXPECT_EQ(recovered(dir_ + "_legacy"), 3u);
  EXPECT_EQ(recovered(dir_ + "_fp"), 3u);
  fs::remove_all(dir_ + "_legacy");
  fs::remove_all(dir_ + "_fp");
}

// ---------- storage manager recovery ----------

storage::StorageOptions managed_options() {
  storage::StorageOptions o;
  o.lot_capacity = 1000;
  o.enforcement = storage::LotEnforcement::nest_managed;
  return o;
}

std::unique_ptr<storage::StorageManager> make_sm(ManualClock& clock) {
  return std::make_unique<storage::StorageManager>(
      clock, std::make_unique<storage::MemFs>(clock, 1'000'000),
      managed_options());
}

// The scripted operation mix: lots (create/renew/terminate), writes with
// lot charges, quota, ACL set/clear, clock-driven expiry, and reclaim.
// Every op succeeds in a crash-free run. Returns the number of
// acknowledged (ok) operations; if `states` is given, appends
// serialize_meta(0) after every op.
int run_script(storage::StorageManager& sm, ManualClock& clock,
               std::vector<std::string>* states = nullptr) {
  int acked = 0;
  std::uint64_t lot_alice = 0, lot_carol = 0;
  const auto step = [&](bool ok) {
    if (ok) ++acked;
    if (states) states->push_back(sm.serialize_meta(0));
  };
  {
    auto id = sm.lot_create(alice(), 300, 10 * kSecond);
    if (id.ok()) lot_alice = *id;
    step(id.ok());
  }
  step(sm.approve_write(alice(), "/a", 100).ok());
  step(sm.acl_set(alice(), "/",
                  classad::ClassAd::parse(
                      "[ Principal = \"user:carol\"; Rights = \"rl\"; ]")
                      .value())
           .ok());
  step(sm.lot_create(bob(), 200, 2 * kSecond).ok());
  step(sm.approve_write(bob(), "/b", 150).ok());
  clock.advance(3 * kSecond);  // bob's lot passes its expiry
  // The tick inside renew expires bob's lot (journaled as lot_expire).
  step(sm.lot_renew(alice(), lot_alice, 10 * kSecond).ok());
  step(sm.remove(alice(), "/a").ok());
  {
    // Needs 600 but only 550 is uncommitted: reclaims /b (journaled as
    // file_release).
    auto id = sm.lot_create(carol(), 600, 5 * kSecond);
    if (id.ok()) lot_carol = *id;
    step(id.ok());
  }
  step(sm.acl_clear(alice(), "/", "user:carol").ok());
  step(sm.lot_terminate(alice(), lot_alice).ok());
  step(sm.approve_write(carol(), "/c", 50).ok());
  step(sm.charge_written(carol(), "/c", 75).ok());
  (void)lot_carol;
  return acked;
}
constexpr int kScriptOps = 12;

TEST_F(JournalTest, ScriptIsCrashFreeBaseline) {
  ManualClock clock;
  auto sm = make_sm(clock);
  EXPECT_EQ(run_script(*sm, clock), kScriptOps);
}

TEST_F(JournalTest, SnapshotPlusTailReplayMatchesLiveState) {
  ManualClock clock;
  journal::JournalOptions opts;
  opts.dir = dir_;
  std::string live;
  {
    auto j = journal::Journal::open(clock, opts);
    ASSERT_TRUE(j.ok());
    auto sm = make_sm(clock);
    ASSERT_TRUE(sm->attach_journal(**j).ok());
    // First half of the script, snapshot, then the rest: recovery must
    // compose snapshot + record tail.
    ASSERT_TRUE(sm->lot_create(alice(), 300, 10 * kSecond).ok());
    ASSERT_TRUE(sm->approve_write(alice(), "/a", 100).ok());
    ASSERT_TRUE(sm->write_journal_snapshot().ok());
    EXPECT_EQ(sm->journal_stats()->segment_count, 1);
    ASSERT_TRUE(sm->lot_create(bob(), 200, 20 * kSecond).ok());
    ASSERT_TRUE(
        sm->acl_set(alice(), "/",
                    classad::ClassAd::parse(
                        "[ Principal = \"user:bob\"; Rights = \"rlw\"; ]")
                        .value())
            .ok());
    live = sm->serialize_meta(0);
    const auto st = sm->journal_stats();
    ASSERT_TRUE(st.has_value());
    EXPECT_GT(st->snapshot_lsn, 0u);
    EXPECT_GT(st->last_lsn, st->snapshot_lsn);
  }
  ManualClock clock2;
  auto j = journal::Journal::open(clock2, opts);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE((*j)->snapshot_payload().has_value());
  auto sm = make_sm(clock2);
  ASSERT_TRUE(sm->attach_journal(**j, /*rebase_clock=*/false).ok());
  EXPECT_EQ(sm->serialize_meta(0), live);
}

TEST_F(JournalTest, CompactionRetiresSegmentsButKeepsState) {
  ManualClock clock;
  journal::JournalOptions opts;
  opts.dir = dir_;
  std::string live;
  {
    auto j = journal::Journal::open(clock, opts);
    ASSERT_TRUE(j.ok());
    auto sm = make_sm(clock);
    ASSERT_TRUE(sm->attach_journal(**j).ok());
    run_script(*sm, clock);
    ASSERT_TRUE(sm->write_journal_snapshot().ok());
    live = sm->serialize_meta(0);
    // Compaction: one live segment, nothing since the snapshot.
    const auto st = sm->journal_stats();
    EXPECT_EQ(st->segment_count, 1);
    EXPECT_EQ(st->records_since_snapshot, 0u);
  }
  ManualClock clock2;
  auto j = journal::Journal::open(clock2, opts);
  ASSERT_TRUE(j.ok());
  std::size_t tail = 0;
  (void)(*j)->replay([&](journal::Lsn, std::string_view) {
    ++tail;
    return Status{};
  });
  EXPECT_EQ(tail, 0u);  // everything lives in the snapshot
  auto sm = make_sm(clock2);
  ASSERT_TRUE(sm->attach_journal(**j, /*rebase_clock=*/false).ok());
  EXPECT_EQ(sm->serialize_meta(0), live);
}

// The crash-point loop: for every injected crash point N, the journaled
// run acknowledges some prefix of the script; restart + replay must
// reconstruct exactly that prefix's state — every acknowledged mutation
// present, nothing unacknowledged resurrected.
TEST_F(JournalTest, CrashPointReplayConvergesToAckedPrefix) {
  // Shadow run (no journal): expected serialized state after each op.
  std::vector<std::string> shadow;
  {
    ManualClock clock;
    auto sm = make_sm(clock);
    ASSERT_EQ(run_script(*sm, clock, &shadow), kScriptOps);
  }
  ASSERT_EQ(shadow.size(), static_cast<std::size_t>(kScriptOps));

  for (int crash_after = 0; crash_after <= kScriptOps + 1; ++crash_after) {
    const std::string jdir = dir_ + "_n" + std::to_string(crash_after);
    fs::remove_all(jdir);
    int acked = 0;
    {
      ManualClock clock;
      journal::JournalOptions opts;
      opts.dir = jdir;
      opts.sync = journal::SyncMode::always;
      opts.crash_after_frames = crash_after;
      auto j = journal::Journal::open(clock, opts);
      ASSERT_TRUE(j.ok());
      auto sm = make_sm(clock);
      ASSERT_TRUE(sm->attach_journal(**j).ok());
      acked = run_script(*sm, clock);
      // One journal frame per op: the injected crash caps the acked count.
      EXPECT_EQ(acked, std::min(crash_after, kScriptOps));
      // The tear strikes frame crash_after+1; with only kScriptOps frames
      // in the script, larger crash points never fire.
      if (crash_after < kScriptOps) {
        EXPECT_TRUE((*j)->dead());
      }
    }
    // Restart: recover into a fresh manager and compare byte-for-byte
    // against the shadow state at the acked prefix.
    ManualClock clock2;
    journal::JournalOptions opts;
    opts.dir = jdir;
    auto j = journal::Journal::open(clock2, opts);
    ASSERT_TRUE(j.ok()) << "crash point " << crash_after;
    auto sm = make_sm(clock2);
    ASSERT_TRUE(sm->attach_journal(**j, /*rebase_clock=*/false).ok());
    if (acked == 0) {
      ManualClock c3;
      auto empty = make_sm(c3);
      EXPECT_EQ(sm->serialize_meta(0), empty->serialize_meta(0))
          << "crash point " << crash_after;
    } else {
      EXPECT_EQ(sm->serialize_meta(0),
                shadow[static_cast<std::size_t>(acked - 1)])
          << "crash point " << crash_after;
    }
    fs::remove_all(jdir);
  }
}

// Same loop under group commit: acknowledgment still implies durability,
// so every acked op must survive (the acked count itself varies with
// batching, which is fine).
TEST_F(JournalTest, CrashPointReplayUnderGroupCommit) {
  std::vector<std::string> shadow;
  {
    ManualClock clock;
    auto sm = make_sm(clock);
    ASSERT_EQ(run_script(*sm, clock, &shadow), kScriptOps);
  }
  for (int crash_after = 1; crash_after <= kScriptOps; crash_after += 3) {
    const std::string jdir = dir_ + "_g" + std::to_string(crash_after);
    fs::remove_all(jdir);
    int acked = 0;
    {
      ManualClock clock;
      journal::JournalOptions opts;
      opts.dir = jdir;
      opts.sync = journal::SyncMode::group;
      opts.commit_interval = kMillisecond;
      opts.crash_after_frames = crash_after;
      auto j = journal::Journal::open(clock, opts);
      ASSERT_TRUE(j.ok());
      auto sm = make_sm(clock);
      ASSERT_TRUE(sm->attach_journal(**j).ok());
      acked = run_script(*sm, clock);
      EXPECT_LE(acked, crash_after);
    }
    ManualClock clock2;
    journal::JournalOptions opts;
    opts.dir = jdir;
    auto j = journal::Journal::open(clock2, opts);
    ASSERT_TRUE(j.ok());
    std::size_t replayed = 0;
    (void)(*j)->replay([&](journal::Lsn, std::string_view) {
      ++replayed;
      return Status{};
    });
    // Acked ops are durable; the log may additionally hold appended but
    // never-acknowledged frames only if they were covered by a batch
    // fsync, in which case they are a longer *prefix* of the script.
    ASSERT_GE(replayed, static_cast<std::size_t>(acked));
    ASSERT_LE(replayed, static_cast<std::size_t>(kScriptOps));
    auto sm = make_sm(clock2);
    ASSERT_TRUE(sm->attach_journal(**j, /*rebase_clock=*/false).ok());
    if (replayed > 0) {
      EXPECT_EQ(sm->serialize_meta(0), shadow[replayed - 1])
          << "crash point " << crash_after;
    }
    fs::remove_all(jdir);
  }
}

TEST_F(JournalTest, RebaseKeepsRemainingDuration) {
  journal::JournalOptions opts;
  opts.dir = dir_;
  std::uint64_t id = 0;
  {
    ManualClock clock;
    clock.advance(100 * kSecond);
    auto j = journal::Journal::open(clock, opts);
    ASSERT_TRUE(j.ok());
    auto sm = make_sm(clock);
    ASSERT_TRUE(sm->attach_journal(**j).ok());
    auto created = sm->lot_create(alice(), 300, 10 * kSecond);
    ASSERT_TRUE(created.ok());
    id = *created;
  }
  // "Restart" on a clock that reads a completely different time.
  ManualClock clock2;
  clock2.advance(5 * kSecond);
  auto j = journal::Journal::open(clock2, opts);
  ASSERT_TRUE(j.ok());
  auto sm = make_sm(clock2);
  ASSERT_TRUE(sm->attach_journal(**j, /*rebase_clock=*/true).ok());
  auto lot = sm->lot_query(alice(), id);
  ASSERT_TRUE(lot.ok());
  EXPECT_FALSE(lot->best_effort);
  // The full 10 s remain relative to the new clock.
  EXPECT_EQ(lot->expiry, clock2.now() + 10 * kSecond);
}

// ---------- full server restart over Chirp ----------

TEST_F(JournalTest, ServerRestartPreservesLotsAndAcls) {
  server::NestServerOptions opts;
  opts.capacity = 1'000'000;
  opts.journal_dir = dir_;
  std::uint64_t lot_id = 0;
  {
    auto server = server::NestServer::start(opts);
    ASSERT_TRUE(server.ok()) << server.error().to_string();
    (*server)->gsi().add_user("alice", "s");
    auto c = client::ChirpClient::connect(
        "127.0.0.1", (*server)->chirp_port(), "alice", "s");
    ASSERT_TRUE(c.ok());
    auto id = c->lot_create(5000, 3600);
    ASSERT_TRUE(id.ok()) << id.error().to_string();
    lot_id = *id;
    ASSERT_TRUE(
        c->acl_set("/", "[ Principal = \"user:bob\"; Rights = \"rl\"; ]")
            .ok());
    auto stat = c->journal_stat();
    ASSERT_TRUE(stat.ok()) << stat.error().to_string();
    EXPECT_NE(stat->find("last_lsn=2"), std::string::npos) << *stat;
    (void)c->quit();
    (*server)->stop();
  }
  // Same journal directory: the lot and the ACL entry must come back.
  auto server = server::NestServer::start(opts);
  ASSERT_TRUE(server.ok()) << server.error().to_string();
  (*server)->gsi().add_user("alice", "s");
  auto c = client::ChirpClient::connect("127.0.0.1", (*server)->chirp_port(),
                                        "alice", "s");
  ASSERT_TRUE(c.ok());
  auto desc = c->lot_query(lot_id);
  ASSERT_TRUE(desc.ok()) << desc.error().to_string();
  EXPECT_NE(desc->find("owner=alice"), std::string::npos) << *desc;
  EXPECT_NE(desc->find("best_effort=0"), std::string::npos) << *desc;
  auto listing = c->lot_list();
  ASSERT_TRUE(listing.ok());
  EXPECT_NE(listing->find("id=" + std::to_string(lot_id)),
            std::string::npos);
  auto acl = c->acl_get("/");
  ASSERT_TRUE(acl.ok());
  EXPECT_NE(acl->find("user:bob"), std::string::npos) << *acl;
  auto stat = c->journal_stat();
  ASSERT_TRUE(stat.ok());
  EXPECT_NE(stat->find("segments="), std::string::npos);
  ASSERT_TRUE(c->acl_clear("/", "user:bob").ok());
  auto cleared = c->acl_get("/");
  ASSERT_TRUE(cleared.ok());
  EXPECT_EQ(cleared->find("user:bob"), std::string::npos);
  (void)c->quit();
  (*server)->stop();
}

TEST_F(JournalTest, ServerWithoutJournalRejectsJournalStat) {
  server::NestServerOptions opts;
  auto server = server::NestServer::start(opts);
  ASSERT_TRUE(server.ok());
  (*server)->gsi().add_user("alice", "s");
  auto c = client::ChirpClient::connect("127.0.0.1", (*server)->chirp_port(),
                                        "alice", "s");
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c->journal_stat().ok());
  (void)c->quit();
  (*server)->stop();
}

}  // namespace
}  // namespace nest

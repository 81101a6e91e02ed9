// Cold-tier HSM tests (docs/hsm.md): the migrate/recall residency
// protocol, the drain policy (live lots and pins keep files hot), recall
// re-admission against live-lot guarantees, failpoint-driven aborts,
// recall-storm fan-in (N readers, one staged pass), crash-point recovery
// of tier state against a shadow model, snapshot round-trips of the
// residency section, the hsm_recover() double-residency scrub, and the
// simulated tape sweep (storm fan-in + migration pacing under stride).
// The binary carries the `hsm` CTest label; scripts/tier1.sh reruns it
// under both sanitizer presets.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "fault/failpoint.h"
#include "hsm/hsm_manager.h"
#include "storage/residency.h"
#include "journal/journal.h"
#include "obs/stats.h"
#include "sim/engine.h"
#include "sim/platform.h"
#include "simnest/protocol_model.h"
#include "simnest/simhost.h"
#include "simnest/simnest.h"
#include "storage/localfs.h"
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

// A 1000-byte lot pool: the 1 MB backends below dwarf it, so admission
// decisions are all lot-driven.
storage::StorageOptions small_pool_options() {
  return storage::StorageOptions{.lot_capacity = 1000};
}

// Hot MemFs + cold MemFs over the small lot pool.
std::unique_ptr<storage::StorageManager> make_sm(ManualClock& clock) {
  auto sm = std::make_unique<storage::StorageManager>(
      clock, std::make_unique<storage::MemFs>(clock, 1'000'000),
      small_pool_options());
  sm->attach_cold_tier(std::make_unique<storage::MemFs>(clock, 1'000'000));
  return sm;
}

std::string pattern(std::size_t n) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<char>((i * 31 + 7) & 0xff);
  return out;
}

void write_file(storage::StorageManager& sm, const storage::Principal& who,
                const std::string& path, const std::string& data) {
  auto t = sm.approve_write(who, path, static_cast<std::int64_t>(data.size()));
  ASSERT_TRUE(t.ok()) << path << ": " << t.error().to_string();
  auto w = t->handle->pwrite(
      std::span<const char>(data.data(), data.size()), 0);
  ASSERT_TRUE(w.ok());
  ASSERT_EQ(*w, static_cast<std::int64_t>(data.size()));
}

std::string read_file(storage::StorageManager& sm,
                      const storage::Principal& who,
                      const std::string& path) {
  auto t = sm.approve_read(who, path);
  if (!t.ok()) {
    ADD_FAILURE() << path << ": " << t.error().to_string();
    return {};
  }
  std::string out(static_cast<std::size_t>(t->size), '\0');
  auto n = t->handle->pread(std::span<char>(out.data(), out.size()), 0);
  if (!n.ok() || *n != t->size) {
    ADD_FAILURE() << path << ": short read";
    return {};
  }
  return out;
}

class HsmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::registry().disarm_all();
    dir_ = (fs::temp_directory_path() /
            ("nest_hsm_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fault::registry().disarm_all();
    fs::remove_all(dir_);
  }

  std::string dir_;
};

// ---------- residency protocol ----------

TEST_F(HsmTest, OpsRequireAColdTier) {
  ManualClock clock;
  storage::StorageManager sm(
      clock, std::make_unique<storage::MemFs>(clock, 1'000'000),
      small_pool_options());
  EXPECT_FALSE(sm.cold_tier_attached());
  EXPECT_EQ(sm.hsm_begin_migrate(alice(), "/x").code(),
            Errc::invalid_argument);
  EXPECT_EQ(sm.hsm_begin_recall(alice(), "/x").code(),
            Errc::invalid_argument);
  EXPECT_TRUE(sm.hsm_migration_candidates(10).empty());
}

TEST_F(HsmTest, MigrateRecallRoundTripIsByteIdentical) {
  ManualClock clock;
  auto sm = make_sm(clock);
  auto lot = sm->lot_create(alice(), 500, 10 * kSecond);
  ASSERT_TRUE(lot.ok());
  const std::string data = pattern(300);
  write_file(*sm, alice(), "/data", data);
  ASSERT_TRUE(sm->lot_terminate(alice(), *lot).ok());

  hsm::TierMigrator mig(clock, *sm, nullptr,
                        hsm::MigratorOptions{.block_bytes = 64});
  ASSERT_TRUE(mig.migrate(alice(), "/data").ok());

  // Cold: tier reported, metadata still visible, reads answer `staging`.
  auto tier = sm->hsm_tier(alice(), "/data");
  ASSERT_TRUE(tier.ok());
  EXPECT_EQ(*tier, hsm::Tier::cold);
  auto st = sm->stat(alice(), "/data");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 300);
  auto names = sm->list(alice(), "/");
  ASSERT_TRUE(names.ok());
  bool found = false;
  for (const auto& e : *names) found = found || e.name == "data";
  EXPECT_TRUE(found);
  EXPECT_EQ(sm->approve_read(alice(), "/data").code(), Errc::staging);
  const auto stats = sm->hsm_stats();
  EXPECT_EQ(stats.cold_files, 1);
  EXPECT_EQ(stats.cold_bytes, 300);

  // Recall: hot again, byte-identical, residency empty.
  hsm::RecallManager rec(clock, *sm, nullptr, /*block_bytes=*/64);
  ASSERT_TRUE(rec.recall(alice(), "/data").ok());
  tier = sm->hsm_tier(alice(), "/data");
  ASSERT_TRUE(tier.ok());
  EXPECT_EQ(*tier, hsm::Tier::hot);
  EXPECT_EQ(read_file(*sm, alice(), "/data"), data);
  EXPECT_EQ(sm->hsm_stats().cold_files, 0);
  // Recalling an already-hot path is success, not an error.
  EXPECT_TRUE(rec.recall(alice(), "/data").ok());
}

TEST_F(HsmTest, MigrationPolicyRespectsLiveLotsAndPins) {
  ManualClock clock;
  auto sm = make_sm(clock);
  auto lot = sm->lot_create(alice(), 300, 10 * kSecond);
  ASSERT_TRUE(lot.ok());
  write_file(*sm, alice(), "/data", pattern(100));
  hsm::TierMigrator mig(clock, *sm, nullptr,
                        hsm::MigratorOptions{.block_bytes = 64});

  // Live lot: not a candidate, explicit migrate refused.
  EXPECT_TRUE(sm->hsm_migration_candidates(10).empty());
  EXPECT_EQ(mig.migrate(alice(), "/data").code(), Errc::busy);

  // Terminated (best-effort) lot: drainable.
  ASSERT_TRUE(sm->lot_terminate(alice(), *lot).ok());
  const auto cands = sm->hsm_migration_candidates(10);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0], "/data");

  // Pinned: blocked again, until unpinned.
  ASSERT_TRUE(sm->lot_set_pin(alice(), *lot, true).ok());
  EXPECT_TRUE(sm->hsm_migration_candidates(10).empty());
  EXPECT_EQ(mig.migrate(alice(), "/data").code(), Errc::busy);
  // Only the owner (or superuser) may pin.
  EXPECT_EQ(sm->lot_set_pin(bob(), *lot, false).code(),
            Errc::permission_denied);
  ASSERT_TRUE(sm->lot_set_pin(alice(), *lot, false).ok());

  // Non-owner cannot drain someone else's file.
  EXPECT_EQ(mig.migrate(bob(), "/data").code(), Errc::permission_denied);

  // The policy pass drains it.
  EXPECT_EQ(mig.run_pass(), 1u);
  auto tier = sm->hsm_tier(alice(), "/data");
  ASSERT_TRUE(tier.ok());
  EXPECT_EQ(*tier, hsm::Tier::cold);
  // A second pass finds nothing.
  EXPECT_EQ(mig.run_pass(), 0u);
}

TEST_F(HsmTest, RecallAdmissionRespectsLiveLotGuarantees) {
  ManualClock clock;
  auto sm = make_sm(clock);
  auto lot = sm->lot_create(alice(), 300, 10 * kSecond);
  ASSERT_TRUE(lot.ok());
  const std::string data = pattern(300);
  write_file(*sm, alice(), "/data", data);
  ASSERT_TRUE(sm->lot_terminate(alice(), *lot).ok());
  hsm::TierMigrator mig(clock, *sm, nullptr,
                        hsm::MigratorOptions{.block_bytes = 64});
  ASSERT_TRUE(mig.migrate(alice(), "/data").ok());

  // A live lot now guarantees 900 of the 1000-byte pool: the 300-byte
  // recall no longer fits and must be refused, leaving the file cold.
  auto big = sm->lot_create(bob(), 900, 10 * kSecond);
  ASSERT_TRUE(big.ok());
  hsm::RecallManager rec(clock, *sm, nullptr, /*block_bytes=*/64);
  EXPECT_EQ(rec.recall(alice(), "/data").code(), Errc::no_space);
  auto tier = sm->hsm_tier(alice(), "/data");
  ASSERT_TRUE(tier.ok());
  EXPECT_EQ(*tier, hsm::Tier::cold);

  // Freeing the guarantee lets the recall through.
  ASSERT_TRUE(sm->lot_terminate(bob(), *big).ok());
  ASSERT_TRUE(rec.recall(alice(), "/data").ok());
  EXPECT_EQ(read_file(*sm, alice(), "/data"), data);
}

TEST_F(HsmTest, FailpointAbortsLeaveConsistentState) {
  ManualClock clock;
  auto sm = make_sm(clock);
  auto lot = sm->lot_create(alice(), 300, 10 * kSecond);
  ASSERT_TRUE(lot.ok());
  const std::string data = pattern(100);
  write_file(*sm, alice(), "/data", data);
  ASSERT_TRUE(sm->lot_terminate(alice(), *lot).ok());
  hsm::TierMigrator mig(clock, *sm, nullptr,
                        hsm::MigratorOptions{.block_bytes = 32});
  hsm::RecallManager rec(clock, *sm, nullptr, /*block_bytes=*/32);

  // Mid-copy migrate failure: abort leaves the file hot, no residency,
  // no cold partial.
  ASSERT_TRUE(fault::registry().arm("hsm.migrate", "after(2)return(EIO)").ok());
  EXPECT_EQ(mig.migrate(alice(), "/data").code(), Errc::io_error);
  ASSERT_TRUE(fault::registry().arm("hsm.migrate", "off").ok());
  auto tier = sm->hsm_tier(alice(), "/data");
  ASSERT_TRUE(tier.ok());
  EXPECT_EQ(*tier, hsm::Tier::hot);
  EXPECT_EQ(sm->hsm_stats().cold_files + sm->hsm_stats().migrating, 0);
  EXPECT_EQ(read_file(*sm, alice(), "/data"), data);

  // Clean retry succeeds.
  ASSERT_TRUE(mig.migrate(alice(), "/data").ok());

  // Mid-copy recall failure: abort leaves the file cold, hot partial
  // removed, and the cold copy intact for the retry.
  ASSERT_TRUE(fault::registry().arm("hsm.recall", "after(1)return(EIO)").ok());
  EXPECT_EQ(rec.recall(alice(), "/data").code(), Errc::io_error);
  ASSERT_TRUE(fault::registry().arm("hsm.recall", "off").ok());
  tier = sm->hsm_tier(alice(), "/data");
  ASSERT_TRUE(tier.ok());
  EXPECT_EQ(*tier, hsm::Tier::cold);
  EXPECT_EQ(sm->approve_read(alice(), "/data").code(), Errc::staging);

  // Cold-device read failure behaves the same.
  ASSERT_TRUE(fault::registry().arm("hsm.cold_read", "return(EIO)").ok());
  EXPECT_EQ(rec.recall(alice(), "/data").code(), Errc::io_error);
  ASSERT_TRUE(fault::registry().arm("hsm.cold_read", "off").ok());
  tier = sm->hsm_tier(alice(), "/data");
  ASSERT_TRUE(tier.ok());
  EXPECT_EQ(*tier, hsm::Tier::cold);

  // Clean retry stages the original bytes back.
  ASSERT_TRUE(rec.recall(alice(), "/data").ok());
  EXPECT_EQ(read_file(*sm, alice(), "/data"), data);
}

// ---------- recall-storm fan-in ----------

// 16 concurrent readers of one cold file: exactly one staged recall runs;
// the other 15 join its flight and everyone sees identical bytes. A
// sleep failpoint on the copy loop holds the executor's flight open long
// enough for every joiner to arrive deterministically.
TEST_F(HsmTest, RecallStormFansInToOneStagedRecall) {
  ManualClock clock;
  auto sm = make_sm(clock);
  auto lot = sm->lot_create(alice(), 600, 10 * kSecond);
  ASSERT_TRUE(lot.ok());
  const std::string data = pattern(512);
  write_file(*sm, alice(), "/data", data);
  ASSERT_TRUE(sm->lot_terminate(alice(), *lot).ok());
  hsm::TierMigrator mig(clock, *sm, nullptr);
  ASSERT_TRUE(mig.migrate(alice(), "/data").ok());

  obs::Stats::global().reset();
  // 32 blocks x 100 ms: the executor stays in flight for ~3 s.
  ASSERT_TRUE(fault::registry().arm("hsm.recall", "sleep(100)").ok());
  hsm::RecallManager rec(clock, *sm, nullptr, /*block_bytes=*/16);

  Status exec_status;
  std::thread executor(
      [&] { exec_status = rec.recall(alice(), "/data"); });
  // Wait for the executor to own the flight before launching joiners.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (rec.in_flight() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(rec.in_flight(), 1u);

  std::vector<std::thread> joiners;
  std::atomic<int> joined_ok{0};
  for (int i = 0; i < 15; ++i) {
    joiners.emplace_back([&] {
      if (rec.recall(alice(), "/data").ok()) joined_ok.fetch_add(1);
    });
  }
  for (auto& t : joiners) t.join();
  executor.join();
  fault::registry().disarm_all();

  EXPECT_TRUE(exec_status.ok());
  EXPECT_EQ(joined_ok.load(), 15);
  auto& st = obs::Stats::global();
  // The acceptance bar: one staged pass served the whole storm.
  EXPECT_EQ(st.hsm_recalls.load(), 1);
  EXPECT_EQ(st.hsm_recall_joins.load(), 15);
  EXPECT_EQ(st.hsm_bytes_recalled.load(), 512);
  EXPECT_EQ(read_file(*sm, alice(), "/data"), data);
  EXPECT_EQ(rec.in_flight(), 0u);
}

// ---------- crash-point recovery ----------

// The scripted HSM mix: every op seals exactly one journal frame.
int run_hsm_script(storage::StorageManager& sm, ManualClock& clock,
                   std::vector<std::string>* states = nullptr) {
  int acked = 0;
  const auto step = [&](bool ok) {
    if (ok) ++acked;
    if (states) states->push_back(sm.serialize_meta(0));
  };
  std::uint64_t lot_id = 0;
  {
    auto id = sm.lot_create(alice(), 300, 10 * kSecond);
    if (id.ok()) lot_id = *id;
    step(id.ok());
  }
  {
    auto t = sm.approve_write(alice(), "/a", 100);
    if (t.ok())
      (void)t->handle->pwrite(std::span<const char>(pattern(100).data(), 100),
                              0);
    step(t.ok());
  }
  {
    auto t = sm.approve_write(alice(), "/b", 80);
    if (t.ok())
      (void)t->handle->pwrite(std::span<const char>(pattern(80).data(), 80),
                              0);
    step(t.ok());
  }
  step(sm.lot_set_pin(alice(), lot_id, true).ok());
  step(sm.lot_set_pin(alice(), lot_id, false).ok());
  step(sm.lot_terminate(alice(), lot_id).ok());
  hsm::TierMigrator mig(clock, sm, nullptr,
                        hsm::MigratorOptions{.block_bytes = 32});
  step(mig.migrate(alice(), "/a").ok());
  step(mig.migrate(alice(), "/b").ok());
  hsm::RecallManager rec(clock, sm, nullptr, /*block_bytes=*/32);
  {
    // Recalling a hot path is success without touching the journal (the
    // fan-in race contract), so only count the op when it really stages —
    // otherwise a crashed run where the migrate never journaled would
    // "ack" a recall no frame backs.
    auto tier = sm.hsm_tier(alice(), "/a");
    const bool was_cold = tier.ok() && *tier == hsm::Tier::cold;
    step(was_cold && rec.recall(alice(), "/a").ok());
  }
  return acked;
}
constexpr int kHsmScriptOps = 9;

TEST_F(HsmTest, ScriptIsCrashFreeBaselineWithOneFramePerOp) {
  ManualClock clock;
  auto sm = make_sm(clock);
  EXPECT_EQ(run_hsm_script(*sm, clock), kHsmScriptOps);

  // Journaled run: exactly one frame per op, so the crash-point loop can
  // index the shadow states by acked count.
  ManualClock clock2;
  journal::JournalOptions opts;
  opts.dir = dir_;
  opts.sync = journal::SyncMode::always;
  auto j = journal::Journal::open(clock2, opts);
  ASSERT_TRUE(j.ok());
  auto sm2 = make_sm(clock2);
  ASSERT_TRUE(sm2->attach_journal(**j).ok());
  EXPECT_EQ(run_hsm_script(*sm2, clock2), kHsmScriptOps);

  ManualClock clock3;
  auto j2 = journal::Journal::open(clock3, opts);
  ASSERT_TRUE(j2.ok());
  std::size_t frames = 0;
  (void)(*j2)->replay([&](journal::Lsn, std::string_view) {
    ++frames;
    return Status{};
  });
  EXPECT_EQ(frames, static_cast<std::size_t>(kHsmScriptOps));
}

// Kill-and-restart at every journal frame: the recovered lot/residency
// state must equal the shadow model at the acked prefix —
// every acknowledged tier transition present, nothing unacknowledged
// resurrected.
TEST_F(HsmTest, CrashPointReplayRecoversResidencyExactly) {
  std::vector<std::string> shadow;
  {
    ManualClock clock;
    auto sm = make_sm(clock);
    ASSERT_EQ(run_hsm_script(*sm, clock, &shadow), kHsmScriptOps);
  }
  ASSERT_EQ(shadow.size(), static_cast<std::size_t>(kHsmScriptOps));

  for (int crash_after = 0; crash_after <= kHsmScriptOps + 1; ++crash_after) {
    const std::string jdir = dir_ + "_n" + std::to_string(crash_after);
    fs::remove_all(jdir);
    int acked = 0;
    {
      ManualClock clock;
      journal::JournalOptions opts;
      opts.dir = jdir;
      opts.sync = journal::SyncMode::always;
      auto j = journal::Journal::open(clock, opts);
      ASSERT_TRUE(j.ok());
      auto sm = make_sm(clock);
      ASSERT_TRUE(sm->attach_journal(**j).ok());
      ASSERT_TRUE(fault::registry()
                      .arm("journal.crash", "after(" +
                                                std::to_string(crash_after) +
                                                ")return()")
                      .ok());
      acked = run_hsm_script(*sm, clock);
      fault::registry().disarm_all();
      EXPECT_EQ(acked, std::min(crash_after, kHsmScriptOps));
    }
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

TEST_F(HsmTest, SnapshotCarriesResidencyAcrossCompaction) {
  journal::JournalOptions opts;
  opts.dir = dir_;
  std::string live;
  {
    ManualClock clock;
    auto j = journal::Journal::open(clock, opts);
    ASSERT_TRUE(j.ok());
    auto sm = make_sm(clock);
    ASSERT_TRUE(sm->attach_journal(**j).ok());
    auto lot = sm->lot_create(alice(), 500, 10 * kSecond);
    ASSERT_TRUE(lot.ok());
    write_file(*sm, alice(), "/a", pattern(100));
    write_file(*sm, alice(), "/b", pattern(80));
    ASSERT_TRUE(sm->lot_terminate(alice(), *lot).ok());
    hsm::TierMigrator mig(clock, *sm, nullptr,
                          hsm::MigratorOptions{.block_bytes = 32});
    ASSERT_TRUE(mig.migrate(alice(), "/a").ok());
    ASSERT_TRUE(mig.migrate(alice(), "/b").ok());
    ASSERT_TRUE(sm->write_journal_snapshot().ok());
    EXPECT_EQ(sm->journal_stats()->segment_count, 1);
    live = sm->serialize_meta(0);
  }
  ManualClock clock2;
  auto j = journal::Journal::open(clock2, opts);
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE((*j)->snapshot_payload().has_value());
  auto sm = make_sm(clock2);
  ASSERT_TRUE(sm->attach_journal(**j, /*rebase_clock=*/false).ok());
  EXPECT_EQ(sm->serialize_meta(0), live);
  const auto stats = sm->hsm_stats();
  EXPECT_EQ(stats.cold_files, 2);
  EXPECT_EQ(stats.cold_bytes, 180);
}

// hsm_recover over real (persistent) filesystems: a hot stray left by an
// interrupted commit is deleted, an orphan cold file from an uncommitted
// migration is GC'd, and a cold copy lost by the device drops its entry.
TEST_F(HsmTest, RecoverResolvesDoubleResidencyAndOrphans) {
  const std::string hot_dir = dir_ + "/hot";
  const std::string cold_dir = dir_ + "/cold";
  const std::string jdir = dir_ + "/journal";
  fs::create_directories(hot_dir);
  fs::create_directories(cold_dir);
  journal::JournalOptions opts;
  opts.dir = jdir;

  const std::string data_a = pattern(100);
  {
    ManualClock clock;
    auto j = journal::Journal::open(clock, opts);
    ASSERT_TRUE(j.ok());
    auto hot = storage::LocalFs::open_root(hot_dir, 1'000'000);
    ASSERT_TRUE(hot.ok());
    storage::StorageManager sm(clock, std::move(*hot), small_pool_options());
    auto cold = storage::LocalFs::open_root(cold_dir, 1'000'000);
    ASSERT_TRUE(cold.ok());
    sm.attach_cold_tier(std::move(*cold));
    ASSERT_TRUE(sm.attach_journal(**j).ok());
    auto lot = sm.lot_create(alice(), 500, 10 * kSecond);
    ASSERT_TRUE(lot.ok());
    write_file(sm, alice(), "/a", data_a);
    write_file(sm, alice(), "/lost", pattern(60));
    ASSERT_TRUE(sm.lot_terminate(alice(), *lot).ok());
    hsm::TierMigrator mig(clock, sm, nullptr,
                          hsm::MigratorOptions{.block_bytes = 32});
    ASSERT_TRUE(mig.migrate(alice(), "/a").ok());
    ASSERT_TRUE(mig.migrate(alice(), "/lost").ok());
  }
  // Crash aftermath, staged by hand:
  //  - /a: hot stray reappears (commit interrupted between barrier and
  //    hot delete — the caught-by-design double-residency window).
  //  - /orphan: cold bytes with no journal entry (migration that began
  //    but never committed).
  //  - /lost: the cold device lost the bytes.
  { std::ofstream(hot_dir + "/a") << "stale-hot-copy"; }
  { std::ofstream(cold_dir + "/orphan") << "uncommitted"; }
  fs::remove(cold_dir + "/lost");

  ManualClock clock2;
  auto j = journal::Journal::open(clock2, opts);
  ASSERT_TRUE(j.ok());
  auto hot = storage::LocalFs::open_root(hot_dir, 1'000'000);
  ASSERT_TRUE(hot.ok());
  storage::StorageManager sm(clock2, std::move(*hot), small_pool_options());
  auto cold = storage::LocalFs::open_root(cold_dir, 1'000'000);
  ASSERT_TRUE(cold.ok());
  sm.attach_cold_tier(std::move(*cold));
  ASSERT_TRUE(sm.attach_journal(**j, /*rebase_clock=*/false).ok());
  ASSERT_TRUE(sm.hsm_recover().ok());

  EXPECT_FALSE(fs::exists(hot_dir + "/a"));       // stray deleted
  EXPECT_TRUE(fs::exists(cold_dir + "/a"));       // cold copy authoritative
  EXPECT_FALSE(fs::exists(cold_dir + "/orphan")); // orphan GC'd
  const auto stats = sm.hsm_stats();
  EXPECT_EQ(stats.cold_files, 1);  // /lost dropped with its bytes
  auto tier = sm.hsm_tier(alice(), "/a");
  ASSERT_TRUE(tier.ok());
  EXPECT_EQ(*tier, hsm::Tier::cold);

  // The surviving cold copy recalls to the original bytes.
  hsm::RecallManager rec(clock2, sm, nullptr, /*block_bytes=*/32);
  ASSERT_TRUE(rec.recall(alice(), "/a").ok());
  EXPECT_EQ(read_file(sm, alice(), "/a"), data_a);
}

// ---------- HsmManager worker surface ----------

TEST_F(HsmTest, ManagerPollMigratesAndDrainsRecallQueue) {
  obs::Stats::global().reset();
  ManualClock clock;
  auto sm = make_sm(clock);
  auto lot = sm->lot_create(alice(), 300, 10 * kSecond);
  ASSERT_TRUE(lot.ok());
  const std::string data = pattern(120);
  write_file(*sm, alice(), "/x", data);
  ASSERT_TRUE(sm->lot_terminate(alice(), *lot).ok());

  hsm::HsmOptions ho;
  ho.block_bytes = 32;
  ho.scan_interval = kSecond;
  hsm::HsmManager mgr(clock, *sm, nullptr, ho);

  // Policy pass drains the expired lot's file.
  EXPECT_EQ(mgr.poll(), 1u);
  auto tier = sm->hsm_tier(alice(), "/x");
  ASSERT_TRUE(tier.ok());
  EXPECT_EQ(*tier, hsm::Tier::cold);

  // A cold read queues an asynchronous recall; poll() drains it.
  mgr.note_cold_read(alice(), "/x");
  mgr.note_cold_read(alice(), "/x");  // deduplicated
  EXPECT_EQ(mgr.recalls().pending(), 1u);
  EXPECT_EQ(obs::Stats::global().hsm_staging_busy.load(), 2);
  EXPECT_EQ(mgr.poll(), 1u);
  tier = sm->hsm_tier(alice(), "/x");
  ASSERT_TRUE(tier.ok());
  EXPECT_EQ(*tier, hsm::Tier::hot);
  EXPECT_EQ(read_file(*sm, alice(), "/x"), data);
  EXPECT_EQ(mgr.poll(), 0u);

  // Worker start/stop is idempotent and joins cleanly.
  mgr.start();
  mgr.start();
  mgr.stop();
  mgr.stop();
}

// ---------- simulated tape sweep ----------

// 16 simulated clients hit one cold file on a tape2002 cold store: one
// recall pays the mount-and-stream cost, 15 join, and once hot the next
// read is orders of magnitude faster than the staged one.
TEST_F(HsmTest, SimRecallStormPaysTapePenaltyOnce) {
  using simnest::ProtocolBehavior;
  using simnest::SimNest;
  sim::Engine eng;
  simnest::SimHost host(eng, sim::PlatformProfile::linux2_2());
  simnest::SimNestConfig cfg;
  cfg.tm.adaptive = false;
  SimNest server(host, cfg);
  server.attach_cold_tier(sim::PlatformProfile::tape2002());
  server.add_cold_file("/tape", 2'000'000);
  ASSERT_TRUE(server.is_cold("/tape"));

  int ok_count = 0;
  for (int i = 0; i < 16; ++i) {
    sim::spawn([](SimNest& s, int& ok) -> sim::Co<void> {
      if (co_await s.client_get(ProtocolBehavior::chirp(), "/tape")) ++ok;
    }(server, ok_count));
  }
  eng.run();
  const Nanos storm_done = eng.now();

  EXPECT_EQ(ok_count, 16);
  const auto& c = server.hsm_counters();
  EXPECT_EQ(c.recalls, 1);         // exactly one staged pass
  EXPECT_EQ(c.recall_joins, 15);   // everyone else piggybacked
  EXPECT_EQ(c.bytes_recalled, 2'000'000);
  EXPECT_FALSE(server.is_cold("/tape"));
  // The tape mount alone is 2 s; the storm must have paid it (once).
  EXPECT_GE(storm_done, 2 * kSecond);

  // Now hot: a follow-up read never touches the cold store.
  sim::spawn([](SimNest& s) -> sim::Co<void> {
    co_await s.client_get(ProtocolBehavior::chirp(), "/tape");
  }(server));
  eng.run();
  EXPECT_LT(eng.now() - storm_done, kSecond);
  EXPECT_EQ(server.hsm_counters().recalls, 1);
}

struct PacingRun {
  Nanos live_done = 0;
  Nanos mig_done = 0;
  bool migrated = false;
  bool cold_after = false;
  std::int64_t bytes_migrated = 0;
};

// One contended episode: a client streams 16 x 1 MB gets while a policy
// drain moves an 8 MB file cold, both through the same stride scheduler.
PacingRun run_pacing(std::int64_t live_tickets, std::int64_t mig_tickets,
                     bool with_migration) {
  using simnest::ProtocolBehavior;
  using simnest::SimNest;
  sim::Engine eng;
  simnest::SimHost host(eng, sim::PlatformProfile::linux2_2());
  simnest::SimNestConfig cfg;
  cfg.tm.adaptive = false;
  cfg.tm.scheduler = "stride";
  cfg.service_slots = 1;  // force every grant through the scheduler
  cfg.hsm_block = 64 * 1024;
  SimNest server(host, cfg);
  server.tm().stride()->set_tickets("chirp", live_tickets);
  server.tm().stride()->set_tickets("migrate", mig_tickets);
  // A nearline disk pool as the cold tier: pacing is what is under test,
  // not the tape mount cost.
  auto cold = sim::PlatformProfile::tape2002();
  cold.disk_seek = kMillisecond;
  cold.disk_bw = 20.0e6;
  server.attach_cold_tier(cold);
  server.add_file("/live", 1'000'000, /*cached=*/true);
  server.add_file("/old", 8'000'000, /*cached=*/true);

  PacingRun out;
  sim::spawn([](sim::Engine& e, SimNest& s, PacingRun& r) -> sim::Co<void> {
    for (int i = 0; i < 16; ++i)
      co_await s.client_get(ProtocolBehavior::chirp(), "/live");
    r.live_done = e.now();
  }(eng, server, out));
  if (with_migration) {
    sim::spawn([](sim::Engine& e, SimNest& s, PacingRun& r) -> sim::Co<void> {
      r.migrated = co_await s.migrate_file("/old");
      r.mig_done = e.now();
    }(eng, server, out));
  }
  eng.run();
  out.cold_after = server.is_cold("/old");
  out.bytes_migrated = server.hsm_counters().bytes_migrated;
  return out;
}

// Stride tickets make migration bandwidth proportional: a paced drain
// (8:1 for live traffic) keeps live latency within the 2x acceptance
// bound, while flipping the ratio visibly starves the live client and
// finishes the drain sooner.
TEST_F(HsmTest, SimMigrationPacingIsProportionalToTickets) {
  const PacingRun base = run_pacing(8, 1, /*with_migration=*/false);
  const PacingRun paced = run_pacing(8, 1, /*with_migration=*/true);
  const PacingRun flood = run_pacing(1, 8, /*with_migration=*/true);

  ASSERT_GT(base.live_done, 0);
  ASSERT_TRUE(paced.migrated);
  ASSERT_TRUE(paced.cold_after);
  ASSERT_TRUE(flood.migrated);
  EXPECT_EQ(paced.bytes_migrated, 8'000'000);

  // Acceptance: live completion within 2x of the no-migration baseline
  // when the drain is paced behind live traffic.
  EXPECT_LE(paced.live_done, 2 * base.live_done);
  // Proportionality: more migrate tickets -> the drain finishes sooner
  // and the live client pays for it.
  EXPECT_LT(flood.mig_done, paced.mig_done);
  EXPECT_GT(flood.live_done, paced.live_done);
}

}  // namespace
}  // namespace nest

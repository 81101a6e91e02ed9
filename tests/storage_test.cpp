#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <random>
#include <thread>

#include "common/clock.h"
#include "storage/acl.h"
#include "storage/extentfs.h"
#include "storage/localfs.h"
#include "storage/lot.h"
#include "storage/memfs.h"
#include "storage/storage_manager.h"

namespace nest::storage {
namespace {

Principal alice() {
  return Principal{.name = "alice",
                   .groups = {"physics"},
                   .authenticated = true,
                   .protocol = "chirp"};
}
Principal bob() {
  return Principal{.name = "bob",
                   .groups = {},
                   .authenticated = true,
                   .protocol = "gridftp"};
}
Principal anon() {
  return Principal{.name = "",
                   .groups = {},
                   .authenticated = false,
                   .protocol = "http"};
}

// ---------- MemFs ----------

class MemFsTest : public ::testing::Test {
 protected:
  ManualClock clock;
  MemFs fs{clock, 1'000'000};
};

TEST_F(MemFsTest, MkdirAndStat) {
  ASSERT_TRUE(fs.mkdir("/a").ok());
  auto st = fs.stat("/a");
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->is_dir);
}

TEST_F(MemFsTest, MkdirRequiresParent) {
  EXPECT_EQ(fs.mkdir("/a/b").code(), Errc::not_found);
  ASSERT_TRUE(fs.mkdir("/a").ok());
  EXPECT_TRUE(fs.mkdir("/a/b").ok());
  EXPECT_EQ(fs.mkdir("/a/b").code(), Errc::exists);
}

TEST_F(MemFsTest, CreateWriteRead) {
  auto h = fs.create("/f");
  ASSERT_TRUE(h.ok());
  const std::string data = "hello nest";
  ASSERT_TRUE((*h)->pwrite(std::span(data.data(), data.size()), 0).ok());
  char buf[32] = {};
  auto n = (*h)->pread(std::span(buf, sizeof buf), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, static_cast<std::size_t>(*n)), data);
}

TEST_F(MemFsTest, SparseWriteExtends) {
  auto h = fs.create("/f");
  ASSERT_TRUE(h.ok());
  const char byte = 'x';
  ASSERT_TRUE((*h)->pwrite(std::span(&byte, 1), 100).ok());
  EXPECT_EQ((*h)->stat().value().size, 101);
}

TEST_F(MemFsTest, ReadPastEofReturnsZero) {
  auto h = fs.create("/f");
  ASSERT_TRUE(h.ok());
  char buf[8];
  EXPECT_EQ((*h)->pread(std::span(buf, 8), 50).value(), 0);
}

TEST_F(MemFsTest, ListDirectChildrenOnly) {
  ASSERT_TRUE(fs.mkdir("/d").ok());
  ASSERT_TRUE(fs.mkdir("/d/sub").ok());
  ASSERT_TRUE(fs.create("/d/f1").ok());
  ASSERT_TRUE(fs.create("/d/sub/deep").ok());
  auto entries = fs.list("/d");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
}

TEST_F(MemFsTest, ListRoot) {
  ASSERT_TRUE(fs.mkdir("/a").ok());
  ASSERT_TRUE(fs.create("/f").ok());
  auto entries = fs.list("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

TEST_F(MemFsTest, RmdirRejectsNonEmpty) {
  ASSERT_TRUE(fs.mkdir("/d").ok());
  ASSERT_TRUE(fs.create("/d/f").ok());
  EXPECT_EQ(fs.rmdir("/d").code(), Errc::busy);
  ASSERT_TRUE(fs.remove("/d/f").ok());
  EXPECT_TRUE(fs.rmdir("/d").ok());
}

TEST_F(MemFsTest, RemoveDistinguishesDirs) {
  ASSERT_TRUE(fs.mkdir("/d").ok());
  EXPECT_EQ(fs.remove("/d").code(), Errc::is_dir);
  EXPECT_EQ(fs.rmdir("/missing").code(), Errc::not_found);
}

TEST_F(MemFsTest, RenameMovesFile) {
  ASSERT_TRUE(fs.create("/a").ok());
  ASSERT_TRUE(fs.rename("/a", "/b").ok());
  EXPECT_EQ(fs.stat("/a").code(), Errc::not_found);
  EXPECT_TRUE(fs.stat("/b").ok());
}

TEST_F(MemFsTest, UsedSpaceTracksData) {
  auto h = fs.create("/f");
  ASSERT_TRUE(h.ok());
  std::vector<char> data(1000, 'x');
  ASSERT_TRUE((*h)->pwrite(std::span(data.data(), data.size()), 0).ok());
  EXPECT_EQ(fs.used_space(), 1000);
  EXPECT_EQ(fs.free_space(), 999'000);
}

TEST_F(MemFsTest, OwnerPersists) {
  ASSERT_TRUE(fs.create("/f").ok());
  fs.set_owner("/f", "alice");
  EXPECT_EQ(fs.stat("/f")->owner, "alice");
}

// ---------- LocalFs ----------

class LocalFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("nest_localfs_" + std::to_string(::getpid()));
    std::filesystem::create_directories(root_);
    auto fs = LocalFs::open_root(root_.string(), 10'000'000);
    ASSERT_TRUE(fs.ok()) << fs.error().to_string();
    fs_ = std::move(fs.value());
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::filesystem::path root_;
  std::unique_ptr<LocalFs> fs_;
};

TEST_F(LocalFsTest, RejectsMissingRoot) {
  EXPECT_FALSE(LocalFs::open_root("/no/such/dir", 1).ok());
}

TEST_F(LocalFsTest, CreateWriteReadRoundTrip) {
  auto h = fs_->create("/file.dat");
  ASSERT_TRUE(h.ok()) << h.error().to_string();
  const std::string data = "payload";
  ASSERT_TRUE((*h)->pwrite(std::span(data.data(), data.size()), 0).ok());
  char buf[16] = {};
  auto n = (*h)->pread(std::span(buf, sizeof buf), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, static_cast<std::size_t>(*n)), data);
  EXPECT_TRUE(std::filesystem::exists(root_ / "file.dat"));
}

TEST_F(LocalFsTest, MkdirListRemove) {
  ASSERT_TRUE(fs_->mkdir("/d").ok());
  ASSERT_TRUE(fs_->create("/d/f").ok());
  auto entries = fs_->list("/d");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "f");
  EXPECT_EQ(fs_->rmdir("/d").code(), Errc::busy);
  ASSERT_TRUE(fs_->remove("/d/f").ok());
  EXPECT_TRUE(fs_->rmdir("/d").ok());
}

TEST_F(LocalFsTest, PathTraversalIsSandboxed) {
  // "../../" must not escape the root.
  auto h = fs_->create("/../../escape.txt");
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(std::filesystem::exists(root_ / "escape.txt"));
  EXPECT_FALSE(std::filesystem::exists(
      root_.parent_path().parent_path() / "escape.txt"));
}

TEST_F(LocalFsTest, StatReportsSize) {
  auto h = fs_->create("/f");
  ASSERT_TRUE(h.ok());
  std::vector<char> data(4096, 'y');
  ASSERT_TRUE((*h)->pwrite(std::span(data.data(), data.size()), 0).ok());
  auto st = fs_->stat("/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 4096);
  EXPECT_FALSE(st->is_dir);
}

TEST_F(LocalFsTest, UsedSpaceWalksTree) {
  auto h = fs_->create("/a");
  std::vector<char> data(1000, 'z');
  ASSERT_TRUE((*h)->pwrite(std::span(data.data(), data.size()), 0).ok());
  ASSERT_TRUE(fs_->mkdir("/d").ok());
  auto h2 = fs_->create("/d/b");
  ASSERT_TRUE((*h2)->pwrite(std::span(data.data(), 500), 0).ok());
  EXPECT_EQ(fs_->used_space(), 1500);
}

// ---------- Rights / AccessControl ----------

TEST(Rights, ParseAndPrintRoundTrip) {
  auto m = parse_rights("rwlida");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, kAllRights);
  EXPECT_EQ(rights_to_string(*m), "rwlida");
  EXPECT_FALSE(parse_rights("rx").ok());
  EXPECT_EQ(parse_rights("").value(), 0u);
}

class AclTest : public ::testing::Test {
 protected:
  AccessControl acl;
};

TEST_F(AclTest, DefaultPolicyAuthUserFull) {
  EXPECT_TRUE(acl.check(alice(), "/anything", Right::write).ok());
  EXPECT_TRUE(acl.check(alice(), "/anything", Right::admin).ok());
}

TEST_F(AclTest, DefaultPolicyAnonymousReadOnly) {
  EXPECT_TRUE(acl.check(anon(), "/f", Right::read).ok());
  EXPECT_TRUE(acl.check(anon(), "/f", Right::lookup).ok());
  EXPECT_EQ(acl.check(anon(), "/f", Right::write).code(),
            Errc::permission_denied);
  EXPECT_EQ(acl.check(anon(), "/f", Right::insert).code(),
            Errc::permission_denied);
}

TEST_F(AclTest, PerDirectoryOverrides) {
  auto entry = classad::ClassAd::parse(
      "[ Principal = \"user:alice\"; Rights = \"rwlid\"; ]");
  ASSERT_TRUE(entry.ok());
  ASSERT_TRUE(acl.set_entry("/private", *entry).ok());
  // /private now has an explicit ACL granting only alice.
  EXPECT_TRUE(acl.check(alice(), "/private/f", Right::write).ok());
  EXPECT_EQ(acl.check(bob(), "/private/f", Right::write).code(),
            Errc::permission_denied);
  // bob still has rights elsewhere via the root default.
  EXPECT_TRUE(acl.check(bob(), "/public/f", Right::write).ok());
}

TEST_F(AclTest, GroupEntries) {
  auto entry = classad::ClassAd::parse(
      "[ Principal = \"group:physics\"; Rights = \"rl\"; ]");
  ASSERT_TRUE(acl.set_entry("/data", *entry).ok());
  EXPECT_TRUE(acl.check(alice(), "/data/f", Right::read).ok());  // in physics
  EXPECT_EQ(acl.check(bob(), "/data/f", Right::read).code(),
            Errc::permission_denied);
}

TEST_F(AclTest, GenericRequirementsEntry) {
  // Paper: access control is "a generic framework built on top of
  // collections of ClassAds" — arbitrary expressions over the principal.
  auto entry = classad::ClassAd::parse(
      "[ Requirements = other.Authenticated && other.Protocol == \"chirp\"; "
      "Rights = \"rwlida\"; ]");
  ASSERT_TRUE(entry.ok());
  ASSERT_TRUE(acl.set_entry("/chirp-only", *entry).ok());
  EXPECT_TRUE(acl.check(alice(), "/chirp-only/x", Right::write).ok());
  EXPECT_EQ(acl.check(bob(), "/chirp-only/x", Right::write).code(),
            Errc::permission_denied);  // bob arrives via gridftp
}

TEST_F(AclTest, RightsUnionAcrossEntries) {
  auto e1 = classad::ClassAd::parse(
      "[ Principal = \"user:alice\"; Rights = \"r\"; ]");
  auto e2 = classad::ClassAd::parse(
      "[ Principal = \"group:physics\"; Rights = \"w\"; ]");
  ASSERT_TRUE(acl.set_entry("/mix", *e1).ok());
  ASSERT_TRUE(acl.set_entry("/mix", *e2).ok());
  const RightsMask m = acl.effective_rights(alice(), "/mix/f");
  EXPECT_EQ(rights_to_string(m), "rw");
}

TEST_F(AclTest, SuperuserBypasses) {
  Principal root{.name = "root", .groups = {}, .authenticated = true,
                 .protocol = "chirp"};
  auto entry = classad::ClassAd::parse(
      "[ Principal = \"user:alice\"; Rights = \"r\"; ]");
  ASSERT_TRUE(acl.set_entry("/locked", *entry).ok());
  EXPECT_TRUE(acl.check(root, "/locked/x", Right::admin).ok());
}

TEST_F(AclTest, SetEntryValidation) {
  classad::ClassAd no_rights;
  no_rights.insert("Principal", classad::Value::string("user:x"));
  EXPECT_FALSE(acl.set_entry("/d", no_rights).ok());
  auto bad_rights = classad::ClassAd::parse(
      "[ Principal = \"user:x\"; Rights = \"qz\"; ]");
  EXPECT_FALSE(acl.set_entry("/d", *bad_rights).ok());
  auto no_principal = classad::ClassAd::parse("[ Rights = \"r\"; ]");
  EXPECT_FALSE(acl.set_entry("/d", *no_principal).ok());
}

TEST_F(AclTest, ReplaceAndClearEntries) {
  auto e1 = classad::ClassAd::parse(
      "[ Principal = \"user:alice\"; Rights = \"r\"; ]");
  auto e2 = classad::ClassAd::parse(
      "[ Principal = \"user:alice\"; Rights = \"rw\"; ]");
  ASSERT_TRUE(acl.set_entry("/d", *e1).ok());
  ASSERT_TRUE(acl.set_entry("/d", *e2).ok());  // replaces, not appends
  EXPECT_EQ(rights_to_string(acl.effective_rights(alice(), "/d/f")), "rw");
  ASSERT_TRUE(acl.clear_entries("/d", "user:alice").ok());
  EXPECT_EQ(acl.effective_rights(alice(), "/d/f"), 0u);
  EXPECT_EQ(acl.clear_entries("/d", "user:alice").code(), Errc::not_found);
}

// ---------- LotManager ----------

class LotTest : public ::testing::Test {
 protected:
  ManualClock clock;
  std::vector<std::string> reclaimed;
  LotManager lots{clock, 1000, ReclaimPolicy::expired_lru,
                  [this](const std::string& p) { reclaimed.push_back(p); }};
};

TEST_F(LotTest, CreateAndQuery) {
  auto id = lots.create("alice", 400, kSecond);
  ASSERT_TRUE(id.ok());
  auto lot = lots.query(*id);
  ASSERT_TRUE(lot.ok());
  EXPECT_EQ(lot->capacity, 400);
  EXPECT_EQ(lot->used, 0);
  EXPECT_FALSE(lot->best_effort);
  EXPECT_EQ(lots.available_bytes(), 600);
}

TEST_F(LotTest, RejectsOvercommit) {
  ASSERT_TRUE(lots.create("alice", 700, kSecond).ok());
  EXPECT_EQ(lots.create("bob", 400, kSecond).code(), Errc::no_space);
  EXPECT_EQ(lots.create("bob", 2000, kSecond).code(), Errc::no_space);
  EXPECT_TRUE(lots.create("bob", 300, kSecond).ok());
}

TEST_F(LotTest, RejectsBadArguments) {
  EXPECT_EQ(lots.create("a", 0, kSecond).code(), Errc::invalid_argument);
  EXPECT_EQ(lots.create("a", 10, 0).code(), Errc::invalid_argument);
  EXPECT_EQ(lots.renew(999, kSecond).code(), Errc::lot_unknown);
  EXPECT_EQ(lots.terminate(999).code(), Errc::lot_unknown);
}

TEST_F(LotTest, ChargeWithinLot) {
  auto id = lots.create("alice", 400, kSecond);
  auto allocs = lots.charge("alice", {}, "/f", 100);
  ASSERT_TRUE(allocs.ok());
  ASSERT_EQ(allocs->size(), 1u);
  EXPECT_EQ((*allocs)[0].lot, *id);
  EXPECT_EQ(lots.query(*id)->used, 100);
}

TEST_F(LotTest, ChargeFailsWithoutLot) {
  EXPECT_EQ(lots.charge("bob", {}, "/f", 10).code(), Errc::lot_unknown);
}

TEST_F(LotTest, ChargeFailsWhenFull) {
  ASSERT_TRUE(lots.create("alice", 100, kSecond).ok());
  EXPECT_EQ(lots.charge("alice", {}, "/f", 200).code(), Errc::no_space);
}

TEST_F(LotTest, FileSpansMultipleLots) {
  // Paper: "a file may span multiple lots if it cannot fit within a
  // single one."
  auto id1 = lots.create("alice", 100, kSecond);
  auto id2 = lots.create("alice", 100, kSecond);
  ASSERT_TRUE(id1.ok() && id2.ok());
  auto allocs = lots.charge("alice", {}, "/big", 150);
  ASSERT_TRUE(allocs.ok());
  ASSERT_EQ(allocs->size(), 2u);
  EXPECT_EQ((*allocs)[0].bytes + (*allocs)[1].bytes, 150);
  EXPECT_EQ(lots.query(*id1)->used, 100);
  EXPECT_EQ(lots.query(*id2)->used, 50);
}

TEST_F(LotTest, ReleaseFileFreesAllCharges) {
  ASSERT_TRUE(lots.create("alice", 100, kSecond).ok());
  ASSERT_TRUE(lots.create("alice", 100, kSecond).ok());
  ASSERT_TRUE(lots.charge("alice", {}, "/big", 150).ok());
  lots.release_file("/big");
  for (const auto& lot : lots.all_lots()) EXPECT_EQ(lot.used, 0);
}

TEST_F(LotTest, ExpiryMakesBestEffort) {
  auto id = lots.create("alice", 400, kSecond);
  ASSERT_TRUE(lots.charge("alice", {}, "/f", 100).ok());
  clock.advance(2 * kSecond);
  lots.tick();
  auto lot = lots.query(*id);
  ASSERT_TRUE(lot.ok());
  EXPECT_TRUE(lot->best_effort);
  // Only used bytes still occupy space.
  EXPECT_EQ(lots.available_bytes(), 900);
  // New writes cannot charge a best-effort lot.
  EXPECT_EQ(lots.charge("alice", {}, "/g", 10).code(), Errc::lot_unknown);
}

TEST_F(LotTest, ExpiryAtExactBoundary) {
  // The guarantee covers [create, expiry): a tick at exactly the expiry
  // instant already sees the lot as best-effort.
  auto id = lots.create("alice", 400, kSecond);
  clock.advance(kSecond - 1);
  lots.tick();
  EXPECT_FALSE(lots.query(*id)->best_effort);
  clock.advance(1);
  lots.tick();
  EXPECT_TRUE(lots.query(*id)->best_effort);
}

TEST_F(LotTest, ExpiryNotifiesExactlyOnce) {
  std::vector<LotId> expired;
  lots.set_on_expire([&](LotId id) { expired.push_back(id); });
  auto id = lots.create("alice", 400, kSecond);
  ASSERT_TRUE(lots.charge("alice", {}, "/f", 100).ok());
  clock.advance(2 * kSecond);
  lots.tick();
  lots.tick();  // later ticks must not re-fire the transition
  clock.advance(kSecond);
  lots.tick();
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], *id);
  // An explicit terminate of an already best-effort lot stays silent too.
  ASSERT_TRUE(lots.terminate(*id).ok());
  EXPECT_EQ(expired.size(), 1u);
}

TEST_F(LotTest, ApplyExpireIsIdempotent) {
  auto id = lots.create("alice", 400, kSecond);
  ASSERT_TRUE(lots.charge("alice", {}, "/f", 100).ok());
  // Replay-style expiry: no clock consultation.
  lots.apply_expire(*id);
  const auto once = lots.query(*id);
  ASSERT_TRUE(once.ok());
  EXPECT_TRUE(once->best_effort);
  EXPECT_EQ(once->capacity, 100);
  lots.apply_expire(*id);
  const auto twice = lots.query(*id);
  EXPECT_EQ(twice->capacity, 100);
  EXPECT_EQ(lots.available_bytes(), 900);
  lots.apply_expire(999);  // unknown ids are ignored on replay
}

TEST_F(LotTest, BestEffortFilesSurviveUntilPressure) {
  ASSERT_TRUE(lots.create("alice", 400, kSecond).ok());
  ASSERT_TRUE(lots.charge("alice", {}, "/f", 300).ok());
  clock.advance(2 * kSecond);
  // Space demand below what's free: no reclaim.
  ASSERT_TRUE(lots.create("bob", 600, kSecond).ok());
  EXPECT_TRUE(reclaimed.empty());
  // Now demand exceeds free space: /f must be reclaimed.
  ASSERT_TRUE(lots.create("carol", 200, kSecond).ok());
  ASSERT_EQ(reclaimed.size(), 1u);
  EXPECT_EQ(reclaimed[0], "/f");
}

TEST_F(LotTest, RenewExtendsLiveLot) {
  auto id = lots.create("alice", 100, kSecond);
  ASSERT_TRUE(lots.renew(*id, kSecond).ok());
  clock.advance(kSecond + kSecond / 2);
  lots.tick();
  EXPECT_FALSE(lots.query(*id)->best_effort);
}

TEST_F(LotTest, RenewRevivesBestEffortLot) {
  auto id = lots.create("alice", 100, kSecond);
  ASSERT_TRUE(lots.charge("alice", {}, "/f", 60).ok());
  clock.advance(2 * kSecond);
  lots.tick();
  ASSERT_TRUE(lots.query(*id)->best_effort);
  ASSERT_TRUE(lots.renew(*id, kSecond).ok());
  const auto lot = lots.query(*id);
  EXPECT_FALSE(lot->best_effort);
  EXPECT_EQ(lot->capacity, 60);  // revived at its used size
}

TEST_F(LotTest, TerminateEmptyLotDisappears) {
  auto id = lots.create("alice", 100, kSecond);
  ASSERT_TRUE(lots.terminate(*id).ok());
  EXPECT_EQ(lots.query(*id).code(), Errc::lot_unknown);
  EXPECT_EQ(lots.available_bytes(), 1000);
}

TEST_F(LotTest, TerminateWithFilesKeepsBestEffortData) {
  auto id = lots.create("alice", 100, kSecond);
  ASSERT_TRUE(lots.charge("alice", {}, "/f", 40).ok());
  ASSERT_TRUE(lots.terminate(*id).ok());
  const auto lot = lots.query(*id);
  ASSERT_TRUE(lot.ok());
  EXPECT_TRUE(lot->best_effort);
  EXPECT_EQ(lots.available_bytes(), 960);
}

TEST_F(LotTest, GroupLotsUsableByMembers) {
  auto id = lots.create("physics", 200, kSecond, /*group_lot=*/true);
  ASSERT_TRUE(id.ok());
  // alice is in physics.
  EXPECT_TRUE(lots.charge("alice", {"physics"}, "/f", 50).ok());
  // bob is not.
  EXPECT_EQ(lots.charge("bob", {}, "/g", 50).code(), Errc::lot_unknown);
}

class ReclaimPolicyTest : public ::testing::TestWithParam<ReclaimPolicy> {};

TEST_P(ReclaimPolicyTest, OnlyExpiredLotsAreVictims) {
  ManualClock clock;
  std::vector<std::string> reclaimed;
  LotManager lots(clock, 1000, GetParam(),
                  [&](const std::string& p) { reclaimed.push_back(p); });
  auto live = lots.create("alice", 500, 100 * kSecond);
  ASSERT_TRUE(lots.charge("alice", {}, "/live-file", 400).ok());
  auto dying = lots.create("bob", 300, kSecond);
  ASSERT_TRUE(lots.charge("bob", {}, "/old-file", 200).ok());
  clock.advance(2 * kSecond);  // bob's lot expires, alice's lives
  ASSERT_TRUE(lots.create("carol", 400, kSecond).ok());
  ASSERT_EQ(reclaimed.size(), 1u);
  EXPECT_EQ(reclaimed[0], "/old-file");
  // alice's live guarantee untouched.
  EXPECT_EQ(lots.query(*live)->used, 400);
  (void)dying;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReclaimPolicyTest,
                         ::testing::Values(ReclaimPolicy::expired_lru,
                                           ReclaimPolicy::expired_largest,
                                           ReclaimPolicy::oldest_expiry));

TEST(LotReclaim, LruPolicyPicksLeastRecentlyUsed) {
  ManualClock clock;
  std::vector<std::string> reclaimed;
  LotManager lots(clock, 1000, ReclaimPolicy::expired_lru,
                  [&](const std::string& p) { reclaimed.push_back(p); });
  ASSERT_TRUE(lots.create("a", 300, kSecond).ok());
  ASSERT_TRUE(lots.charge("a", {}, "/old", 300).ok());
  clock.advance(kMillisecond);
  ASSERT_TRUE(lots.create("b", 300, kSecond).ok());
  ASSERT_TRUE(lots.charge("b", {}, "/new", 300).ok());
  clock.advance(2 * kSecond);
  // Need 100 over the 400 free: LRU victim is /old.
  ASSERT_TRUE(lots.create("c", 500, kSecond).ok());
  ASSERT_EQ(reclaimed.size(), 1u);
  EXPECT_EQ(reclaimed[0], "/old");
}

TEST(LotReclaim, LargestPolicyPicksBiggest) {
  ManualClock clock;
  std::vector<std::string> reclaimed;
  LotManager lots(clock, 1000, ReclaimPolicy::expired_largest,
                  [&](const std::string& p) { reclaimed.push_back(p); });
  ASSERT_TRUE(lots.create("a", 100, kSecond).ok());
  ASSERT_TRUE(lots.charge("a", {}, "/small", 100).ok());
  ASSERT_TRUE(lots.create("b", 400, kSecond).ok());
  ASSERT_TRUE(lots.charge("b", {}, "/large", 400).ok());
  clock.advance(2 * kSecond);
  ASSERT_TRUE(lots.create("c", 700, kSecond).ok());
  ASSERT_EQ(reclaimed.size(), 1u);
  EXPECT_EQ(reclaimed[0], "/large");
}

// Property sweep: whatever the sequence of creates, the sum of guarantees
// never exceeds capacity.
class LotInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(LotInvariantTest, GuaranteesNeverExceedCapacity) {
  ManualClock clock;
  LotManager lots(clock, 1000, ReclaimPolicy::expired_lru);
  const int seed = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed));
  for (int i = 0; i < 200; ++i) {
    const std::int64_t cap = 1 + static_cast<std::int64_t>(rng() % 500);
    const Nanos dur = kMillisecond * static_cast<Nanos>(1 + rng() % 2000);
    (void)lots.create("u" + std::to_string(rng() % 5), cap, dur);
    clock.advance(kMillisecond * static_cast<Nanos>(rng() % 300));
    lots.tick();
    ASSERT_LE(lots.reserved_bytes(), 1000);
    ASSERT_GE(lots.available_bytes(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LotInvariantTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------- StorageManager ----------

class StorageManagerTest : public ::testing::Test {
 protected:
  StorageManagerTest()
      : mgr(clock, std::make_unique<MemFs>(clock, 1'000'000),
            StorageOptions{.lot_capacity = 1'000'000}) {}
  ManualClock clock;
  StorageManager mgr;
};

TEST_F(StorageManagerTest, MkdirEnforcesAcl) {
  EXPECT_TRUE(mgr.mkdir(alice(), "/data").ok());
  EXPECT_EQ(mgr.mkdir(anon(), "/nope").code(), Errc::permission_denied);
}

TEST_F(StorageManagerTest, WriteReadLifecycle) {
  auto ticket = mgr.approve_write(alice(), "/f", 5);
  ASSERT_TRUE(ticket.ok()) << ticket.error().to_string();
  const std::string data = "hello";
  ASSERT_TRUE(
      ticket->handle->pwrite(std::span(data.data(), data.size()), 0).ok());
  auto read = mgr.approve_read(bob(), "/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size, 5);
  // Anonymous read is allowed by the default policy.
  EXPECT_TRUE(mgr.approve_read(anon(), "/f").ok());
  // Anonymous write is not.
  EXPECT_EQ(mgr.approve_write(anon(), "/g", 1).code(),
            Errc::permission_denied);
}

TEST_F(StorageManagerTest, WriteChargesLot) {
  auto lot = mgr.lot_create(alice(), 1000, kSecond);
  ASSERT_TRUE(lot.ok());
  auto ticket = mgr.approve_write(alice(), "/f", 400);
  ASSERT_TRUE(ticket.ok());
  ASSERT_EQ(ticket->allocations.size(), 1u);
  EXPECT_EQ(mgr.lot_query(alice(), *lot)->used, 400);
  // Overwrite releases the old charge before recharging.
  auto again = mgr.approve_write(alice(), "/f", 700);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(mgr.lot_query(alice(), *lot)->used, 700);
}

TEST_F(StorageManagerTest, RemoveReleasesLotCharge) {
  auto lot = mgr.lot_create(alice(), 1000, kSecond);
  ASSERT_TRUE(mgr.approve_write(alice(), "/f", 400).ok());
  ASSERT_TRUE(mgr.remove(alice(), "/f").ok());
  EXPECT_EQ(mgr.lot_query(alice(), *lot)->used, 0);
}

TEST_F(StorageManagerTest, StrictModeRequiresLot) {
  ManualClock clk;
  StorageManager strict(clk, std::make_unique<MemFs>(clk, 1'000'000),
                        StorageOptions{.lot_capacity = 1'000'000,
                                       .allow_lotless_writes = false});
  EXPECT_EQ(strict.approve_write(alice(), "/f", 10).code(),
            Errc::lot_unknown);
  ASSERT_TRUE(strict.lot_create(alice(), 100, kSecond).ok());
  EXPECT_TRUE(strict.approve_write(alice(), "/f", 10).ok());
}

TEST_F(StorageManagerTest, LotlessWritesRespectGuarantees) {
  // bob reserves most of the appliance; alice's lot-less write must not
  // invade the guarantee.
  ASSERT_TRUE(mgr.lot_create(bob(), 900'000, kSecond).ok());
  EXPECT_EQ(mgr.approve_write(alice(), "/big", 200'000).code(),
            Errc::no_space);
  EXPECT_TRUE(mgr.approve_write(alice(), "/small", 50'000).ok());
}

TEST_F(StorageManagerTest, LotOpsRequireAuthentication) {
  EXPECT_EQ(mgr.lot_create(anon(), 100, kSecond).code(),
            Errc::not_authenticated);
}

TEST_F(StorageManagerTest, LotOwnershipEnforced) {
  auto lot = mgr.lot_create(alice(), 100, kSecond);
  ASSERT_TRUE(lot.ok());
  EXPECT_EQ(mgr.lot_terminate(bob(), *lot).code(), Errc::permission_denied);
  EXPECT_EQ(mgr.lot_renew(bob(), *lot, kSecond).code(),
            Errc::permission_denied);
  EXPECT_EQ(mgr.lot_query(bob(), *lot).code(), Errc::permission_denied);
  EXPECT_TRUE(mgr.lot_terminate(alice(), *lot).ok());
}

TEST_F(StorageManagerTest, GroupLotSharedAcrossMembers) {
  auto lot = mgr.lot_create(alice(), 1000, kSecond, /*group_lot=*/true);
  ASSERT_TRUE(lot.ok());
  Principal carol{.name = "carol", .groups = {"physics"},
                  .authenticated = true, .protocol = "chirp"};
  auto ticket = mgr.approve_write(carol, "/shared", 100);
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(ticket->allocations.size(), 1u);
  EXPECT_TRUE(mgr.lot_query(carol, *lot).ok());  // member can query
}

TEST_F(StorageManagerTest, AclOpsRequireAdmin) {
  auto entry = classad::ClassAd::parse(
      "[ Principal = \"user:bob\"; Rights = \"r\"; ]");
  EXPECT_TRUE(mgr.acl_set(alice(), "/", *entry).ok());
  EXPECT_EQ(mgr.acl_set(anon(), "/", *entry).code(),
            Errc::permission_denied);
  auto desc = mgr.acl_get(alice(), "/");
  ASSERT_TRUE(desc.ok());
  EXPECT_GE(desc->size(), 3u);  // two defaults + bob
}

TEST_F(StorageManagerTest, ResourceAdPublishesSpace) {
  ASSERT_TRUE(mgr.lot_create(alice(), 300'000, kSecond).ok());
  const classad::ClassAd ad = mgr.resource_ad();
  EXPECT_EQ(ad.eval_string("Type").value(), "Storage");
  EXPECT_EQ(ad.eval_int("TotalSpace").value(), 1'000'000);
  EXPECT_EQ(ad.eval_int("AvailableLotSpace").value(), 700'000);
  EXPECT_EQ(ad.eval("Protocols").as_list()->size(), 5u);
}

TEST_F(StorageManagerTest, ReclaimDeletesBackingFile) {
  auto lot = mgr.lot_create(alice(), 900'000, kSecond);
  ASSERT_TRUE(lot.ok());
  auto t = mgr.approve_write(alice(), "/victim", 800'000);
  ASSERT_TRUE(t.ok());
  std::vector<char> data(800'000, 'v');
  ASSERT_TRUE(t->handle->pwrite(std::span(data.data(), data.size()), 0).ok());
  clock.advance(2 * kSecond);  // lot expires -> best-effort
  // bob demands space only reclaim can satisfy.
  ASSERT_TRUE(mgr.lot_create(bob(), 500'000, kSecond).ok());
  EXPECT_EQ(mgr.stat(alice(), "/victim").code(), Errc::not_found);
}

TEST_F(StorageManagerTest, LotBoundsNewBytesNotOverwrites) {
  ASSERT_TRUE(mgr.lot_create(alice(), 500, kSecond).ok());
  // Each overwrite releases the old charge first, so rewriting one file
  // never accumulates charges.
  for (int i = 0; i < 5; ++i)
    EXPECT_TRUE(mgr.approve_write(alice(), "/a", 300).ok()) << "write " << i;
  // A second file does not fit beside it, and a full lot refuses rather
  // than falling back to lot-less admission.
  EXPECT_EQ(mgr.approve_write(alice(), "/b", 300).code(), Errc::no_space);
}


// ---------- Overwrite truncation outside the metadata lock ----------

// MemFs whose handles block in truncate() once armed, until released: the
// stand-in for freeing a large file's blocks. It can also fail the next
// truncate().
class LatchFs final : public VirtualFs {
 public:
  explicit LatchFs(Clock& clock) : inner_(clock, 1'000'000) {}

  // The next truncate() signals `entered` and waits for release().
  std::future<void> arm() {
    entered_ = {};
    release_ = {};
    released_ = release_.get_future().share();
    armed_ = true;
    return entered_.get_future();
  }
  void release() { release_.set_value(); }
  void fail_next_truncate() { fail_ = true; }

  Status mkdir(const std::string& p) override { return inner_.mkdir(p); }
  Status rmdir(const std::string& p) override { return inner_.rmdir(p); }
  Status remove(const std::string& p) override { return inner_.remove(p); }
  Result<FileStat> stat(const std::string& p) const override {
    return inner_.stat(p);
  }
  Result<std::vector<DirEntry>> list(const std::string& p) const override {
    return inner_.list(p);
  }
  Status rename(const std::string& a, const std::string& b) override {
    return inner_.rename(a, b);
  }
  Result<FileHandlePtr> open(const std::string& p) override {
    return wrap(inner_.open(p));
  }
  Result<FileHandlePtr> create(const std::string& p) override {
    return wrap(inner_.create(p));
  }
  void set_owner(const std::string& p, const std::string& o) override {
    inner_.set_owner(p, o);
  }
  std::int64_t total_space() const override { return inner_.total_space(); }
  std::int64_t used_space() const override { return inner_.used_space(); }

 private:
  class Handle final : public FileHandle {
   public:
    Handle(FileHandlePtr inner, LatchFs& fs)
        : inner_(std::move(inner)), fs_(fs) {}
    Result<std::int64_t> pread(std::span<char> b, std::int64_t o) override {
      return inner_->pread(b, o);
    }
    Result<std::int64_t> pwrite(std::span<const char> b,
                                std::int64_t o) override {
      return inner_->pwrite(b, o);
    }
    Result<FileStat> stat() const override { return inner_->stat(); }
    Status truncate(std::int64_t n) override {
      if (fs_.fail_.exchange(false)) return Status{Errc::io_error, "probe"};
      if (fs_.armed_.exchange(false)) {
        fs_.entered_.set_value();
        fs_.released_.wait();
      }
      return inner_->truncate(n);
    }

   private:
    FileHandlePtr inner_;
    LatchFs& fs_;
  };

  Result<FileHandlePtr> wrap(Result<FileHandlePtr> h) {
    if (!h.ok()) return h;
    return FileHandlePtr(std::make_shared<Handle>(std::move(*h), *this));
  }

  MemFs inner_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> fail_{false};
  std::promise<void> entered_;
  std::promise<void> release_;
  std::shared_future<void> released_;
};

TEST(StorageManagerOverwrite, TruncatesAfterReleasingMetadataLock) {
  using namespace std::chrono_literals;
  ManualClock clock;
  auto owned = std::make_unique<LatchFs>(clock);
  LatchFs& fs = *owned;
  StorageManager mgr(clock, std::move(owned),
                     StorageOptions{.lot_capacity = 1'000'000});
  const std::string big(100'000, 'b');
  const std::string small = "hello";
  for (const auto& [path, body] :
       {std::pair{"/big", &big}, std::pair{"/other", &small}}) {
    auto t = mgr.approve_write(alice(), path,
                               static_cast<std::int64_t>(body->size()));
    ASSERT_TRUE(t.ok()) << t.error().to_string();
    ASSERT_TRUE(
        t->handle->pwrite(std::span(body->data(), body->size()), 0).ok());
  }

  std::future<void> entered = fs.arm();
  auto overwrite = std::async(std::launch::async, [&] {
    return mgr.approve_write(alice(), "/big", 10);
  });
  // The overwrite frees the old bytes through its handle...
  const bool blocked = entered.wait_for(10s) == std::future_status::ready;
  // ...while metadata operations on other paths proceed.
  auto other = std::async(std::launch::async,
                          [&] { return mgr.stat(alice(), "/other"); });
  const bool stat_returned =
      blocked && other.wait_for(10s) == std::future_status::ready;
  const bool overwrite_waiting =
      overwrite.wait_for(0s) == std::future_status::timeout;
  fs.release();
  ASSERT_TRUE(blocked) << "approve_write never truncated through the handle";
  ASSERT_TRUE(stat_returned) << "stat waited behind the truncation";
  EXPECT_TRUE(overwrite_waiting) << "the ticket came back before truncation";
  const auto st = other.get();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 5);

  auto ticket = overwrite.get();
  ASSERT_TRUE(ticket.ok()) << ticket.error().to_string();
  // Empty before any byte of the new body lands.
  EXPECT_EQ(ticket->handle->stat().value().size, 0);
  EXPECT_EQ(mgr.stat(alice(), "/big")->size, 0);
}

TEST(StorageManagerOverwrite, FailedTruncateReleasesCharges) {
  ManualClock clock;
  auto owned = std::make_unique<LatchFs>(clock);
  LatchFs& fs = *owned;
  StorageManager mgr(clock, std::move(owned),
                     StorageOptions{.lot_capacity = 1'000'000});
  auto lot = mgr.lot_create(alice(), 1000, kSecond);
  ASSERT_TRUE(lot.ok());
  ASSERT_TRUE(mgr.approve_write(alice(), "/f", 400).ok());
  EXPECT_EQ(mgr.lot_query(alice(), *lot)->used, 400);
  // A failed truncate leaves the lot as a failed create would.
  fs.fail_next_truncate();
  EXPECT_EQ(mgr.approve_write(alice(), "/f", 700).code(), Errc::io_error);
  EXPECT_EQ(mgr.lot_query(alice(), *lot)->used, 0);
  EXPECT_TRUE(mgr.approve_write(alice(), "/f", 700).ok());
  EXPECT_EQ(mgr.lot_query(alice(), *lot)->used, 700);
}

// ---------- ExtentFs under concurrent handles ----------

// Transfer threads write through their handles outside StorageManager's
// lock while another thread creates and removes files under it: both
// sides allocate and free extents.
TEST(ExtentFsConcurrency, HandlesRaceMetadataOps) {
  constexpr std::int64_t kExt = ExtentFs::kExtentBytes;
  ManualClock clock;
  auto owned = std::make_unique<ExtentFs>(clock, 64 * kExt);
  ExtentFs& fs = *owned;
  StorageManager mgr(clock, std::move(owned),
                     StorageOptions{.lot_capacity = 64 * kExt});
  std::atomic<bool> failed{false};
  const auto writer = [&](char fill) {
    const std::string path = std::string("/w") + fill;
    for (int round = 0; round < 40 && !failed; ++round) {
      const std::int64_t size = (1 + round % 4) * kExt + round;
      auto t = mgr.approve_write(alice(), path, size);
      if (!t.ok()) {
        failed = true;
        break;
      }
      const std::string body(static_cast<std::size_t>(size), fill);
      for (std::int64_t off = 0; off < size; off += 8192) {
        const auto len =
            static_cast<std::size_t>(std::min<std::int64_t>(8192, size - off));
        if (!t->handle->pwrite(std::span(body.data() + off, len), off).ok())
          failed = true;
      }
      std::string got(body.size(), '\0');
      auto n = t->handle->pread(std::span(got.data(), got.size()), 0);
      if (!n.ok() || *n != size || got != body) failed = true;
    }
  };
  std::thread a(writer, 'a');
  std::thread b(writer, 'b');
  std::thread churn([&] {
    for (int i = 0; i < 200 && !failed; ++i) {
      const std::string path = "/c" + std::to_string(i % 3);
      auto t = mgr.approve_write(alice(), path, kExt);
      if (!t.ok()) {
        failed = true;
        break;
      }
      const std::string body(static_cast<std::size_t>(kExt), 'c');
      if (!t->handle->pwrite(std::span(body.data(), body.size()), 0).ok() ||
          !mgr.remove(alice(), path).ok()) {
        failed = true;
      }
    }
  });
  a.join();
  b.join();
  churn.join();
  EXPECT_FALSE(failed);
  // Every extent is either free or owned by a surviving file.
  std::int64_t owned_extents = 0;
  for (const char* path : {"/wa", "/wb"}) owned_extents += fs.extents_of(path);
  EXPECT_EQ(fs.free_extents() + owned_extents, 64);
}

}  // namespace
}  // namespace nest::storage

// Recovery tests for the durable metadata journal: CRC32C (both
// implementations), record and batch codec, the on-disk format pinned by a
// journal an earlier build wrote, torn-tail truncation, snapshot + tail
// replay, crash-point fault injection, batched commits, and a full server
// restart over Chirp. The binary carries the
// `recovery` CTest label, which tier-1 reruns under both asan and tsan
// (the latter for the leader/follower commit).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "client/chirp_client.h"
#include "common/clock.h"
#include "fault/failpoint.h"
#include "journal/crc32c.h"
#include "journal/journal.h"
#include "journal/record.h"
#include "server/nest_server.h"
#include "storage/journal_ops.h"
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
  void TearDown() override {
    fault::registry().disarm_all();
    fs::remove_all(dir_);
  }

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

using CrcFn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

// RFC 3720 section B.4 test vectors, plus the standard check value.
void expect_rfc3720_vectors(CrcFn crc) {
  std::string zeros(32, '\0'), ones(32, '\xff'), up(32, '\0'), down(32, '\0');
  for (int i = 0; i < 32; ++i) {
    up[static_cast<std::size_t>(i)] = static_cast<char>(i);
    down[static_cast<std::size_t>(i)] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(crc(zeros.data(), 32, 0), 0x8A9136AAu);
  EXPECT_EQ(crc(ones.data(), 32, 0), 0x62A8AB43u);
  EXPECT_EQ(crc(up.data(), 32, 0), 0x46DD794Eu);
  EXPECT_EQ(crc(down.data(), 32, 0), 0x113FDB5Cu);
  EXPECT_EQ(crc("123456789", 9, 0), 0xE3069283u);
}

TEST(Crc32c, TableMatchesRfc3720Vectors) {
  expect_rfc3720_vectors(&journal::crc32c_table);
}

TEST(Crc32c, HardwareMatchesRfc3720Vectors) {
  if (!journal::crc32c_hw_available()) GTEST_SKIP() << "no SSE4.2";
  expect_rfc3720_vectors(&journal::crc32c_hw);
}

// The table loop is the reference: the instruction path must agree at
// every length around its 8-byte steps, at every misalignment, and when
// chained through a seed. Each input sits in its own exact-size buffer so
// an over-read shows under AddressSanitizer.
TEST(Crc32c, HardwareMatchesTableAtEveryLengthOffsetAndSeed) {
  if (!journal::crc32c_hw_available()) GTEST_SKIP() << "no SSE4.2";
  std::string src(1024 + 8, '\0');
  std::uint32_t x = 12345;
  for (char& c : src) {
    x = x * 1103515245u + 12345u;
    c = static_cast<char>(x >> 24);
  }
  int mismatches = 0;
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      std::vector<char> buf(off + len);
      std::copy_n(src.data(), off + len, buf.begin());
      const char* p = buf.data() + off;
      const std::uint32_t seed = static_cast<std::uint32_t>(len * 2654435761u);
      if (journal::crc32c_hw(p, len, 0) != journal::crc32c_table(p, len, 0) ||
          journal::crc32c_hw(p, len, seed) !=
              journal::crc32c_table(p, len, seed)) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  // Chaining: crc(b, crc(a)) == crc(a || b) at every split point.
  const std::uint32_t whole = journal::crc32c_hw(src.data(), 1000, 0);
  EXPECT_EQ(whole, journal::crc32c_table(src.data(), 1000, 0));
  for (std::size_t split = 0; split <= 1000; ++split) {
    const std::uint32_t head = journal::crc32c_hw(src.data(), split, 0);
    ASSERT_EQ(journal::crc32c_hw(src.data() + split, 1000 - split, head),
              whole)
        << split;
  }
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
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 1ull << 60);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(r.good());
  // Underflow reads 0 and latches the failure instead of misparsing.
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.good());
}

TEST(RecordCodec, TruncatedStringRejected) {
  journal::RecordWriter w;
  w.str("payload");
  std::string bytes = w.take();
  bytes.resize(bytes.size() - 2);
  journal::RecordReader r(bytes);
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.good());
}

TEST(RecordCodec, UnderflowLatchesAndConsumesNothing) {
  journal::RecordWriter w;
  w.u8(1);
  w.u8(2);
  w.u8(3);
  const std::string bytes = w.take();
  journal::RecordReader r(bytes);
  EXPECT_EQ(r.u32(), 0u);  // three bytes left: too few
  EXPECT_FALSE(r.good());
  EXPECT_EQ(r.remaining(), 3u);
  // Bytes remain, but the failure is sticky: every later read is 0.
  EXPECT_EQ(r.u8(), 0);
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.good());
}

// A batch carrying every record type; cut anywhere short of its end, it
// must fail with protocol_error. Each prefix is copied into its own
// exact-size buffer so an over-read shows under AddressSanitizer.
TEST(MetaBatchCodec, EveryTruncatedPrefixIsAProtocolError) {
  // Tag 7 (owner, limit, used) is a retired quota record that replay reads
  // past; MetaBatch no longer writes one, so it is framed by hand ahead of
  // the records MetaBatch seals.
  journal::RecordWriter w;
  w.i64(42);  // batch timestamp
  w.u32(9);   // record count
  w.u8(7);
  w.str("alice");
  w.i64(1000);
  w.i64(30);
  storage::Lot lot;
  lot.id = 7;
  lot.owner = "alice";
  lot.capacity = 300;
  lot.used = 30;
  lot.expiry = 10 * kSecond;
  lot.files = {{"/a", 10}, {"/b", 20}};
  storage::MetaBatch b;
  b.lot_put(lot);
  b.lot_expire(7);
  b.file_release("/a");
  b.acl_put("/", "[ Principal = \"user:bob\"; Rights = \"rl\"; ]");
  b.acl_clear("/", "user:bob");
  b.hsm_put("/cold", 5, "alice");
  b.hsm_erase("/cold");
  b.lot_erase(7);
  // Drop the sealed header (timestamp and count: 12 bytes).
  const std::string payload = w.take() + b.seal(42).substr(12);

  ManualClock clock;
  const auto apply = [&](std::size_t n) {
    std::vector<char> buf(payload.begin(),
                          payload.begin() + static_cast<std::ptrdiff_t>(n));
    storage::LotManager lots(clock, 1'000'000);
    storage::AccessControl acl;
    hsm::ResidencyMap residency;
    return storage::apply_meta_batch(std::string_view(buf.data(), n),
                                     storage::MetaState{lots, acl, residency});
  };
  const auto full = apply(payload.size());
  ASSERT_TRUE(full.ok()) << full.error().to_string();
  EXPECT_EQ(*full, 42);
  for (std::size_t n = 0; n < payload.size(); ++n) {
    const auto cut = apply(n);
    ASSERT_FALSE(cut.ok()) << "prefix " << n;
    EXPECT_EQ(cut.code(), Errc::protocol_error) << "prefix " << n;
  }
}

// ---------- on-disk format ----------

// A journal directory written by the encoder as of commit b6a352f (segment
// format 1, snapshot format 3): three batches, a snapshot at LSN 3 (which
// compacted the first segment away), then five batches covering every
// record type, the retired quota record (tag 7, for bob) and a snapshot
// quota section (alice and carol) included. kEarlierState is what
// attach_journal + serialize_meta(0) produce from it: that build's state
// with the quota accounts read and discarded, so its quota section is an
// empty count. Recovery must reproduce it byte for byte and leave both
// files as they were.
constexpr std::string_view kEarlierSegment =
    "4e53544a010000000400000000000000150000002d652f760400000000000000"
    "00f2052a010000000100000003020000000000000015000000ecb70e2d050000"
    "000000000000bca065010000000100000004040000002f672f7878000000b384"
    "f02a060000000000000000863ba1010000000200000001050000000000000003"
    "000000626f6200e8030000000000000a00000000000000005847f80d00000000"
    "00863ba10100000000000000000000000002000000060000002f622f6f6e6504"
    "00000000000000060000002f622f74776f060000000000000002010000000000"
    "00005e000000c39656cc07000000000000000050d6dc01000000020000000601"
    "0000002f08000000757365723a626f6205050000002f64617461320000005b20"
    "5072696e636970616c203d202267726f75703a70687973696373223b20526967"
    "687473203d2022726c776964223b205d4d000000568778290800000000000000"
    "001a7118020000000300000009070000002f636f6c642f7a08070000002f636f"
    "6c642f777b0000000000000005000000616c6963650703000000626f62e80300"
    "00000000000a00000000000000";
constexpr std::string_view kEarlierSnapshot =
    "4e4e535001000000030000000000000000286bee00000000e439fd75cc010000"
    "0300000000286bee000000000300000000000000020000000100000000000000"
    "05000000616c696365002c01000000000000640000000000000000e40b540200"
    "00000000ca9a3b0000000002000000000000000001000000020000002f616400"
    "0000000000000200000000000000070000007068797369637301c80000000000"
    "00004b0000000000000000943577000000000000943577000000000000000000"
    "0000000102000000040000002f672f783200000000000000040000002f672f79"
    "190000000000000003000000010000002f350000005b205072696e636970616c"
    "203d202273797374656d3a6175746875736572223b20526967687473203d2022"
    "72776c696461223b205d010000002f300000005b205072696e636970616c203d"
    "202273797374656d3a616e7975736572223b20526967687473203d2022726c22"
    "3b205d010000002f2a0000005b205072696e636970616c203d2022757365723a"
    "626f62223b20526967687473203d2022726c223b205d0200000005000000616c"
    "69636588130000000000006400000000000000050000006361726f6c00000000"
    "00000000001000000000000001000000070000002f636f6c642f7a0010000000"
    "000000050000006361726f6c";
constexpr std::string_view kEarlierState =
    "0300000000000000000000000600000000000000020000000200000000000000"
    "0700000070687973696373011900000000000000190000000000000000943577"
    "0000000001009435770000000000000000000000000101000000040000002f67"
    "2f791900000000000000050000000000000003000000626f6200e80300000000"
    "00000a00000000000000005847f80d0000000000863ba1010000000000000000"
    "0000000002000000060000002f622f6f6e650400000000000000060000002f62"
    "2f74776f060000000000000003000000010000002f350000005b205072696e63"
    "6970616c203d202273797374656d3a6175746875736572223b20526967687473"
    "203d202272776c696461223b205d010000002f300000005b205072696e636970"
    "616c203d202273797374656d3a616e7975736572223b20526967687473203d20"
    "22726c223b205d050000002f64617461320000005b205072696e636970616c20"
    "3d202267726f75703a70687973696373223b20526967687473203d2022726c77"
    "6964223b205d0000000001000000070000002f636f6c642f777b000000000000"
    "0005000000616c696365";

std::string from_hex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  return out;
}

std::string read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
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
  opts.sync = journal::SyncMode::always;
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
    // Concurrent committers share fsyncs: fewer fsyncs than commits.
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

// Commits that arrive while a leader's fsync is in flight wait for it and
// then share the next fsync, instead of queueing one fsync each behind it.
TEST_F(JournalTest, CommitsQueuedBehindAnFsyncShareOneBatch) {
  journal::JournalOptions opts;
  opts.dir = dir_;
  opts.sync = journal::SyncMode::always;
  auto j = journal::Journal::open(RealClock::instance(), opts);
  ASSERT_TRUE(j.ok());
  const std::uint64_t fsyncs_before = (*j)->stats().fsyncs;
  fault::FailPoint& fsync_point = fault::registry().point("journal.fsync");
  const std::uint64_t evals_before = fsync_point.evals();
  ASSERT_TRUE(fault::registry().arm("journal.fsync", "sleep(150)").ok());

  constexpr int kCommitters = 8;
  std::atomic<int> acked{0};
  const auto commit_one = [&](int i) {
    if ((*j)->append_commit("rec" + std::to_string(i)).ok()) ++acked;
  };
  std::vector<std::thread> committers;
  committers.emplace_back(commit_one, 0);
  // The first committer is now asleep inside its fsync.
  while (fsync_point.evals() == evals_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 1; i < kCommitters; ++i) committers.emplace_back(commit_one, i);
  for (std::thread& t : committers) t.join();
  fault::registry().disarm_all();

  EXPECT_EQ(acked.load(), kCommitters);
  const auto st = (*j)->stats();
  EXPECT_EQ(st.durable_lsn, static_cast<journal::Lsn>(kCommitters));
  EXPECT_LE(st.fsyncs - fsyncs_before, 3u);
}

// A crash while several threads commit at once: the leader tears the
// batch and the journal dies, every follower parked behind it wakes with
// an error (a hang would trip the test timeout), and replay still holds
// every record any thread saw acknowledged, with contiguous LSNs.
TEST_F(JournalTest, ConcurrentCrashPointKeepsEveryAckedRecord) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10;  // 80 frames: every crash point below fires
  for (int k = 0; k <= 39; k += 3) {
    const std::string jdir = dir_ + "_c" + std::to_string(k);
    fs::remove_all(jdir);
    journal::JournalOptions opts;
    opts.dir = jdir;
    std::vector<std::vector<std::string>> acked(kThreads);
    {
      auto j = journal::Journal::open(RealClock::instance(), opts);
      ASSERT_TRUE(j.ok());
      ASSERT_TRUE(fault::registry()
                      .arm("journal.crash",
                           "after(" + std::to_string(k) + ")return()")
                      .ok());
      std::vector<std::thread> workers;
      for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&j, &acked, t] {
          for (int i = 0; i < kPerThread; ++i) {
            std::string rec = "t" + std::to_string(t) + "-" + std::to_string(i);
            if (!(*j)->append_commit(rec).ok()) return;
            acked[static_cast<std::size_t>(t)].push_back(std::move(rec));
          }
        });
      }
      for (std::thread& w : workers) w.join();
      fault::registry().disarm_all();
      EXPECT_TRUE((*j)->dead()) << "crash point " << k;
    }
    auto j = journal::Journal::open(RealClock::instance(), opts);
    ASSERT_TRUE(j.ok()) << "crash point " << k;
    std::set<std::string> replayed;
    journal::Lsn next = 1;
    ASSERT_TRUE((*j)
                    ->replay([&](journal::Lsn lsn, std::string_view p) {
                      EXPECT_EQ(lsn, next++) << "crash point " << k;
                      replayed.emplace(p);
                      return Status{};
                    })
                    .ok());
    for (const auto& thread_acked : acked) {
      for (const std::string& rec : thread_acked) {
        EXPECT_EQ(replayed.count(rec), 1u)
            << "crash point " << k << ": acked " << rec << " lost";
      }
    }
    fs::remove_all(jdir);
  }
}

// write_snapshot releases the lock while it syncs, so commits from other
// threads can land in the live segment past the snapshot's LSN while it
// runs; compaction must keep those records.
TEST_F(JournalTest, SnapshotDuringConcurrentCommitsKeepsEveryAckedRecord) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  journal::JournalOptions opts;
  opts.dir = dir_;
  std::vector<std::vector<std::pair<journal::Lsn, std::string>>> acked(
      kThreads);
  {
    auto j = journal::Journal::open(RealClock::instance(), opts);
    ASSERT_TRUE(j.ok());
    std::atomic<bool> done{false};
    std::thread snapshotter([&] {
      while (!done.load()) EXPECT_TRUE((*j)->write_snapshot("snap").ok());
    });
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&j, &acked, t] {
        for (int i = 0; i < kPerThread; ++i) {
          std::string rec = "t" + std::to_string(t) + "-" + std::to_string(i);
          auto lsn = (*j)->append_commit(rec);
          ASSERT_TRUE(lsn.ok());
          acked[static_cast<std::size_t>(t)].emplace_back(*lsn, std::move(rec));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    done = true;
    snapshotter.join();
  }
  auto j = journal::Journal::open(RealClock::instance(), opts);
  ASSERT_TRUE(j.ok());
  const journal::Lsn snap = (*j)->snapshot_lsn();
  std::map<journal::Lsn, std::string> replayed;
  ASSERT_TRUE((*j)
                  ->replay([&](journal::Lsn lsn, std::string_view p) {
                    EXPECT_EQ(lsn, snap + replayed.size() + 1);
                    replayed.emplace(lsn, p);
                    return Status{};
                  })
                  .ok());
  EXPECT_EQ(snap + replayed.size(),
            static_cast<journal::Lsn>(kThreads * kPerThread));
  for (const auto& thread_acked : acked) {
    for (const auto& [lsn, rec] : thread_acked) {
      if (lsn > snap) {
        EXPECT_EQ(replayed[lsn], rec) << "lsn " << lsn;
      }
    }
  }
}

// ---------- storage manager recovery ----------

std::unique_ptr<storage::StorageManager> make_sm(ManualClock& clock) {
  return std::make_unique<storage::StorageManager>(
      clock, std::make_unique<storage::MemFs>(clock, 1'000'000),
      storage::StorageOptions{.lot_capacity = 1000});
}

// The scripted operation mix: lots (create/renew/terminate), writes with
// lot charges, ACL set/clear, clock-driven expiry, and reclaim.
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

TEST_F(JournalTest, RecoversJournalWrittenByEarlierEncoder) {
  fs::create_directories(dir_);
  const std::string seg = dir_ + "/seg-0000000000000004.wal";
  const std::string snap = dir_ + "/snap-0000000000000003.snp";
  std::ofstream(seg, std::ios::binary) << from_hex(kEarlierSegment);
  std::ofstream(snap, std::ios::binary) << from_hex(kEarlierSnapshot);
  ManualClock clock;
  journal::JournalOptions opts;
  opts.dir = dir_;
  auto j = journal::Journal::open(clock, opts);
  ASSERT_TRUE(j.ok()) << j.error().to_string();
  EXPECT_EQ((*j)->snapshot_lsn(), 3u);
  const auto st = (*j)->stats();
  EXPECT_EQ(st.last_lsn, 8u);
  EXPECT_EQ(st.records_since_snapshot, 5u);
  EXPECT_EQ(st.recovered_records, 5u);
  EXPECT_EQ(st.recovered_bytes,
            (kEarlierSegment.size() + kEarlierSnapshot.size()) / 2);
  storage::StorageManager sm(clock, std::make_unique<storage::MemFs>(clock),
                             storage::StorageOptions{});
  ASSERT_TRUE(sm.attach_journal(**j, /*rebase_clock=*/false).ok());
  EXPECT_EQ(sm.serialize_meta(0), from_hex(kEarlierState));
  // Start-up wrote nothing into the recovered files.
  EXPECT_EQ(read_bytes(seg), from_hex(kEarlierSegment));
  EXPECT_EQ(read_bytes(snap), from_hex(kEarlierSnapshot));
  EXPECT_EQ((*j)->append_commit("next").value(), 9u);
}

// The recovery stats count the tail past the snapshot and the bytes read;
// drop_recovered_tail() releases the snapshot and segment buffers.
TEST_F(JournalTest, RecoveryStatsAndDropReleaseTheBuffers) {
  ManualClock clock;
  journal::JournalOptions opts;
  opts.dir = dir_;
  {
    auto j = journal::Journal::open(clock, opts);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE((*j)->append_commit("r1").ok());
    ASSERT_TRUE((*j)->append_commit("r2").ok());
    ASSERT_TRUE((*j)->write_snapshot("snapshot-state").ok());
    for (const char* rec : {"r3", "r4", "r5"})
      ASSERT_TRUE((*j)->append_commit(rec).ok());
  }
  std::uint64_t on_disk = 0;
  for (const auto& e : fs::directory_iterator(dir_)) on_disk += e.file_size();
  auto j = journal::Journal::open(clock, opts);
  ASSERT_TRUE(j.ok());
  const auto st = (*j)->stats();
  EXPECT_EQ(st.recovered_records, 3u);
  EXPECT_EQ(st.recovered_bytes, on_disk);
  ASSERT_TRUE((*j)->snapshot_payload().has_value());
  EXPECT_EQ(*(*j)->snapshot_payload(), "snapshot-state");
  std::vector<std::string> got;
  const auto collect = [&](journal::Lsn, std::string_view p) {
    got.emplace_back(p);
    return Status{};
  };
  ASSERT_TRUE((*j)->replay(collect).ok());
  EXPECT_EQ(got, (std::vector<std::string>{"r3", "r4", "r5"}));
  (*j)->drop_recovered_tail();
  EXPECT_FALSE((*j)->snapshot_payload().has_value());
  got.clear();
  ASSERT_TRUE((*j)->replay(collect).ok());
  EXPECT_TRUE(got.empty());
  EXPECT_EQ((*j)->stats().recovered_records, 3u);
}

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
      auto j = journal::Journal::open(clock, opts);
      ASSERT_TRUE(j.ok());
      auto sm = make_sm(clock);
      ASSERT_TRUE(sm->attach_journal(**j).ok());
      ASSERT_TRUE(fault::registry()
                      .arm("journal.crash", "after(" +
                                                std::to_string(crash_after) +
                                                ")return()")
                      .ok());
      acked = run_script(*sm, clock);
      fault::registry().disarm_all();
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
  // /stats reports what start-up recovered: the lot and the ACL entry.
  auto stats = c->stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"recovered_records\":2,"), std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("\"recovery_us\":"), std::string::npos);
  EXPECT_NE(stats->find("\"journal_flush\":{"), std::string::npos);
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

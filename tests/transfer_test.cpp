#include <gtest/gtest.h>

#include <list>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/chirp_client.h"
#include "client/nfs_client.h"
#include "common/clock.h"
#include "common/rng.h"
#include "server/nest_server.h"
#include "transfer/cache_model.h"
#include "transfer/concurrency.h"
#include "transfer/scheduler.h"
#include "transfer/transfer_manager.h"

namespace nest::transfer {
namespace {

TransferRequest make_req(std::uint64_t id, const std::string& proto,
                         std::int64_t size = 1000) {
  TransferRequest r;
  r.id = id;
  r.protocol = proto;
  r.size = size;
  return r;
}

// ---------- FIFO ----------

TEST(Fifo, ServesInArrivalOrder) {
  FifoScheduler s;
  auto a = make_req(1, "chirp");
  auto b = make_req(2, "nfs");
  s.enqueue(&a);
  s.enqueue(&b);
  EXPECT_EQ(s.next(), &a);
  EXPECT_EQ(s.next(), &b);
  EXPECT_EQ(s.next(), nullptr);
  EXPECT_TRUE(s.empty());
}

// ---------- Stride ----------

// Simulate a server loop: each protocol always has a pending request
// (backlogged classes); count bytes delivered per class over N quanta.
std::map<std::string, std::int64_t> run_stride(
    StrideScheduler& s, const std::map<std::string, std::int64_t>& block_size,
    int quanta) {
  std::map<std::string, TransferRequest> reqs;
  for (const auto& [proto, bs] : block_size) {
    reqs.emplace(proto, make_req(reqs.size() + 1, proto));
  }
  std::map<std::string, std::int64_t> delivered;
  for (const auto& [proto, bs] : block_size) s.enqueue(&reqs.at(proto));
  for (int i = 0; i < quanta; ++i) {
    TransferRequest* r = s.next();
    if (r == nullptr) break;
    const std::int64_t bytes = block_size.at(r->protocol);
    s.charge(r, bytes);
    delivered[r->protocol] += bytes;
    s.enqueue(r);  // backlogged: immediately pending again
  }
  return delivered;
}

TEST(Stride, EqualTicketsEqualBytes) {
  ManualClock clock;
  StrideScheduler s(clock);
  s.set_tickets("chirp", 1);
  s.set_tickets("nfs", 1);
  // Byte-based strides: NFS blocks are 8x smaller, so NFS must be scheduled
  // 8x more often for equal bandwidth (the paper's N-times-more-frequent
  // argument).
  auto delivered = run_stride(s, {{"chirp", 8000}, {"nfs", 1000}}, 900);
  const double ratio = static_cast<double>(delivered["chirp"]) /
                       static_cast<double>(delivered["nfs"]);
  EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST(Stride, TicketsShapeAllocation) {
  ManualClock clock;
  StrideScheduler s(clock);
  s.set_tickets("a", 3);
  s.set_tickets("b", 1);
  auto delivered = run_stride(s, {{"a", 1000}, {"b", 1000}}, 4000);
  const double ratio = static_cast<double>(delivered["a"]) /
                       static_cast<double>(delivered["b"]);
  EXPECT_NEAR(ratio, 3.0, 0.1);
}

TEST(Stride, FourClassPaperRatios) {
  ManualClock clock;
  StrideScheduler s(clock);
  // Paper Figure 4: 3:1:2:1 for Chirp:GridFTP:HTTP:NFS.
  s.set_tickets("chirp", 3);
  s.set_tickets("gridftp", 1);
  s.set_tickets("http", 2);
  s.set_tickets("nfs", 1);
  auto delivered = run_stride(
      s, {{"chirp", 4000}, {"gridftp", 4000}, {"http", 4000}, {"nfs", 500}},
      20000);
  const double total = static_cast<double>(
      delivered["chirp"] + delivered["gridftp"] + delivered["http"] +
      delivered["nfs"]);
  EXPECT_NEAR(delivered["chirp"] / total, 3.0 / 7.0, 0.02);
  EXPECT_NEAR(delivered["gridftp"] / total, 1.0 / 7.0, 0.02);
  EXPECT_NEAR(delivered["http"] / total, 2.0 / 7.0, 0.02);
  EXPECT_NEAR(delivered["nfs"] / total, 1.0 / 7.0, 0.02);
}

TEST(Stride, RejoiningClassGetsNoBackCredit) {
  ManualClock clock;
  StrideScheduler s(clock);
  s.set_tickets("a", 1);
  s.set_tickets("b", 1);
  auto a = make_req(1, "a");
  auto b = make_req(2, "b");
  // Only 'a' runs for a long while.
  s.enqueue(&a);
  for (int i = 0; i < 100; ++i) {
    TransferRequest* r = s.next();
    ASSERT_EQ(r, &a);
    s.charge(r, 1000);
    s.enqueue(r);
  }
  ASSERT_EQ(s.next(), &a);  // drain pending 'a'
  // 'b' arrives; it must not monopolize for 100 rounds to "catch up".
  s.enqueue(&b);
  s.enqueue(&a);
  int b_consecutive = 0;
  TransferRequest* r = s.next();
  while (r == &b && b_consecutive < 10) {
    ++b_consecutive;
    s.charge(r, 1000);
    s.enqueue(&b);
    r = s.next();
  }
  EXPECT_LT(b_consecutive, 3);
}

TEST(Stride, WorkConservingNeverIdlesWithPendingWork) {
  ManualClock clock;
  StrideScheduler s(clock);
  s.set_tickets("nfs", 4);
  s.set_tickets("http", 1);
  auto h = make_req(1, "http");
  auto n = make_req(2, "nfs");
  // NFS ran once, then produced no further requests.
  s.enqueue(&n);
  TransferRequest* r = s.next();
  ASSERT_EQ(r, &n);
  s.charge(r, 1000);
  // Only HTTP pending now: work-conserving serves it although NFS's pass
  // is lower.
  s.enqueue(&h);
  EXPECT_EQ(s.next(), &h);
}

TEST(Stride, NonWorkConservingHoldsForAbsentClass) {
  ManualClock clock;
  StrideScheduler::Options opts;
  opts.work_conserving = false;
  opts.idle_wait = 2 * kMillisecond;
  StrideScheduler s(clock, opts);
  s.set_tickets("nfs", 4);
  s.set_tickets("http", 1);
  auto h = make_req(1, "http");
  auto n = make_req(2, "nfs");
  // NFS runs once (pass advances slowly: 4 tickets), then goes absent.
  s.enqueue(&n);
  TransferRequest* r = s.next();
  ASSERT_EQ(r, &n);
  s.charge(r, 1000);
  // HTTP runs once, pushing its pass well above NFS's (1 ticket vs 4).
  s.enqueue(&h);
  r = s.next();
  ASSERT_EQ(r, &h);
  s.charge(r, 1000);
  // NFS is now the minimum-pass class but has no request pending and was
  // seen recently: non-work-conserving holds rather than serving HTTP.
  s.enqueue(&h);
  EXPECT_EQ(s.next(), nullptr);
  EXPECT_GT(s.hold_until(), clock.now());
  // After the idle wait elapses with no NFS work, HTTP runs.
  clock.advance(3 * kMillisecond);
  EXPECT_EQ(s.next(), &h);
}

TEST(Stride, FactoryMakesAllKinds) {
  ManualClock clock;
  EXPECT_NE(make_scheduler("fifo", clock), nullptr);
  EXPECT_NE(make_scheduler("stride", clock), nullptr);
  EXPECT_NE(make_scheduler("stride-nwc", clock), nullptr);
  EXPECT_NE(make_scheduler("cache-aware", clock), nullptr);
  EXPECT_EQ(make_scheduler("bogus", clock), nullptr);
}

// Property sweep over ratio configurations: delivered shares match tickets
// when all classes are backlogged (Jain fairness ~1).
struct RatioCase {
  std::int64_t chirp, gridftp, http, nfs;
};
class StrideRatioTest : public ::testing::TestWithParam<RatioCase> {};

TEST_P(StrideRatioTest, BackloggedSharesMatchTickets) {
  const RatioCase rc = GetParam();
  ManualClock clock;
  StrideScheduler s(clock);
  s.set_tickets("chirp", rc.chirp);
  s.set_tickets("gridftp", rc.gridftp);
  s.set_tickets("http", rc.http);
  s.set_tickets("nfs", rc.nfs);
  auto delivered = run_stride(
      s, {{"chirp", 2000}, {"gridftp", 3000}, {"http", 1000}, {"nfs", 500}},
      30000);
  const double total_tickets =
      static_cast<double>(rc.chirp + rc.gridftp + rc.http + rc.nfs);
  const double total_bytes = static_cast<double>(
      delivered["chirp"] + delivered["gridftp"] + delivered["http"] +
      delivered["nfs"]);
  EXPECT_NEAR(delivered["chirp"] / total_bytes,
              static_cast<double>(rc.chirp) / total_tickets, 0.02);
  EXPECT_NEAR(delivered["nfs"] / total_bytes,
              static_cast<double>(rc.nfs) / total_tickets, 0.02);
}

INSTANTIATE_TEST_SUITE_P(PaperRatios, StrideRatioTest,
                         ::testing::Values(RatioCase{1, 1, 1, 1},
                                           RatioCase{1, 2, 1, 1},
                                           RatioCase{3, 1, 2, 1},
                                           RatioCase{1, 1, 1, 4},
                                           RatioCase{5, 1, 1, 1},
                                           RatioCase{2, 2, 1, 3}));

// ---------- Cache-aware ----------

TEST(CacheAware, HotBeforeCold) {
  CacheAwareScheduler s;
  auto cold = make_req(1, "http");
  cold.cached_fraction = 0.0;
  auto hot = make_req(2, "http");
  hot.cached_fraction = 1.0;
  s.enqueue(&cold);
  s.enqueue(&hot);
  EXPECT_EQ(s.next(), &hot);
  EXPECT_EQ(s.next(), &cold);
}

TEST(CacheAware, FifoWithinBand) {
  CacheAwareScheduler s;
  auto h1 = make_req(1, "http");
  h1.cached_fraction = 1.0;
  auto h2 = make_req(2, "http");
  h2.cached_fraction = 1.0;
  s.enqueue(&h1);
  s.enqueue(&h2);
  EXPECT_EQ(s.next(), &h1);
  EXPECT_EQ(s.next(), &h2);
}

TEST(CacheAware, ThresholdConfigurable) {
  CacheAwareScheduler s(0.5);
  auto warm = make_req(1, "http");
  warm.cached_fraction = 0.6;
  auto cold = make_req(2, "http");
  cold.cached_fraction = 0.4;
  s.enqueue(&cold);
  s.enqueue(&warm);
  EXPECT_EQ(s.next(), &warm);
}

// ---------- Gray-box cache model ----------

TEST(CacheModel, PredictsResidencyAfterAccess) {
  CacheModel m(64 * 1024, 8 * 1024);  // 8 pages
  EXPECT_DOUBLE_EQ(m.resident_fraction("/f", 16 * 1024), 0.0);
  m.observe_access("/f", 0, 16 * 1024);
  EXPECT_DOUBLE_EQ(m.resident_fraction("/f", 16 * 1024), 1.0);
  EXPECT_TRUE(m.probably_cached("/f", 16 * 1024));
}

TEST(CacheModel, LruEvictionMirrorsKernel) {
  CacheModel m(4 * 8192, 8192);  // 4 pages
  m.observe_access("/a", 0, 2 * 8192);
  m.observe_access("/b", 0, 2 * 8192);
  m.observe_access("/c", 0, 2 * 8192);  // evicts /a
  EXPECT_DOUBLE_EQ(m.resident_fraction("/a", 2 * 8192), 0.0);
  EXPECT_DOUBLE_EQ(m.resident_fraction("/b", 2 * 8192), 1.0);
  EXPECT_DOUBLE_EQ(m.resident_fraction("/c", 2 * 8192), 1.0);
}

TEST(CacheModel, ReaccessRefreshes) {
  CacheModel m(4 * 8192, 8192);
  m.observe_access("/a", 0, 2 * 8192);
  m.observe_access("/b", 0, 2 * 8192);
  m.observe_access("/a", 0, 2 * 8192);  // /a now MRU
  m.observe_access("/c", 0, 2 * 8192);  // evicts /b
  EXPECT_DOUBLE_EQ(m.resident_fraction("/a", 2 * 8192), 1.0);
  EXPECT_DOUBLE_EQ(m.resident_fraction("/b", 2 * 8192), 0.0);
}

TEST(CacheModel, PartialResidency) {
  CacheModel m(1024 * 1024, 8192);
  m.observe_access("/f", 0, 4 * 8192);
  EXPECT_DOUBLE_EQ(m.resident_fraction("/f", 8 * 8192), 0.5);
  EXPECT_FALSE(m.probably_cached("/f", 8 * 8192));
}

TEST(CacheModel, RemoveDropsPages) {
  CacheModel m(1024 * 1024, 8192);
  m.observe_access("/f", 0, 8192);
  m.observe_remove("/f");
  EXPECT_DOUBLE_EQ(m.resident_fraction("/f", 8192), 0.0);
  EXPECT_EQ(m.tracked_pages(), 0);
}

// Property: hit fraction is monotone in modeled cache size for a fixed
// access trace.
class CacheModelSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(CacheModelSizeTest, LargerModelNeverLessResident) {
  const int pages_small = GetParam();
  CacheModel small(pages_small * 8192, 8192);
  CacheModel large(2 * pages_small * 8192, 8192);
  for (int f = 0; f < 6; ++f) {
    const std::string path = "/f" + std::to_string(f);
    small.observe_access(path, 0, 3 * 8192);
    large.observe_access(path, 0, 3 * 8192);
  }
  for (int f = 0; f < 6; ++f) {
    const std::string path = "/f" + std::to_string(f);
    EXPECT_GE(large.resident_fraction(path, 3 * 8192),
              small.resident_fraction(path, 3 * 8192));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheModelSizeTest,
                         ::testing::Values(2, 4, 8, 16));

// The page-keyed model CacheModel replaced, kept verbatim as the reference
// its decisions must equal: one (path, page) hash entry and LRU node per
// resident page, a hash lookup per page per call, a full LRU scan per
// remove.
class ReferenceCacheModel {
 public:
  ReferenceCacheModel(std::int64_t estimated_cache_bytes,
                      std::int64_t page_bytes)
      : capacity_pages_(estimated_cache_bytes / page_bytes),
        page_bytes_(page_bytes) {}

  void observe_access(const std::string& path, std::int64_t offset,
                      std::int64_t len) {
    if (len <= 0) return;
    const std::int64_t first = offset / page_bytes_;
    const std::int64_t last = (offset + len - 1) / page_bytes_;
    for (std::int64_t p = first; p <= last; ++p) {
      const Key key{path, p};
      const auto it = map_.find(key);
      if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        continue;
      }
      while (static_cast<std::int64_t>(map_.size()) >= capacity_pages_ &&
             !lru_.empty()) {
        map_.erase(lru_.back());
        lru_.pop_back();
      }
      lru_.push_front(key);
      map_[key] = lru_.begin();
    }
  }

  void observe_remove(const std::string& path) {
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->path == path) {
        map_.erase(*it);
        it = lru_.erase(it);
      } else {
        ++it;
      }
    }
  }

  double resident_fraction(const std::string& path, std::int64_t size) const {
    if (size <= 0) return 1.0;
    const std::int64_t pages = (size + page_bytes_ - 1) / page_bytes_;
    std::int64_t resident = 0;
    for (std::int64_t p = 0; p < pages; ++p) {
      if (map_.count(Key{path, p})) ++resident;
    }
    return static_cast<double>(resident) / static_cast<double>(pages);
  }

  std::int64_t tracked_pages() const {
    return static_cast<std::int64_t>(map_.size());
  }

 private:
  struct Key {
    std::string path;
    std::int64_t page;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<std::string>()(k.path) ^
             std::hash<std::int64_t>()(k.page * 0x9e3779b97f4a7c15ll);
    }
  };
  using Lru = std::list<Key>;

  std::int64_t capacity_pages_;
  std::int64_t page_bytes_;
  Lru lru_;  // front = MRU
  std::unordered_map<Key, Lru::iterator, KeyHash> map_;
};

// Seeded differential run: the same mixed sequence of accesses, removes
// and queries drives both models, and every answer must be identical —
// A3 and the sim figures depend on the exact decisions, not close ones.
// Paths mix short (SSO) and heap-allocated names; a file's observed
// extent grows and shrinks across accesses, so queries hit files whose
// resident pages lie past the queried prefix.
class CacheModelDifferential
    : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(CacheModelDifferential, MatchesPagedReference) {
  constexpr std::int64_t kPage = 8192;
  const std::int64_t capacity_pages = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    CacheModel model(capacity_pages * kPage, kPage);
    ReferenceCacheModel ref(capacity_pages * kPage, kPage);
    Rng rng(seed * 7919 + static_cast<std::uint64_t>(capacity_pages));
    std::vector<std::string> paths;
    for (int i = 0; i < 12; ++i) {
      paths.push_back(i % 2 == 0 ? "/f" + std::to_string(i)
                                 : "/long/directory/name/for/file-" +
                                       std::to_string(i) + ".dat");
    }
    for (int op = 0; op < 4000; ++op) {
      const std::string& path = paths[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(paths.size()) - 1))];
      const std::int64_t roll = rng.uniform(0, 99);
      if (roll < 55) {
        // Mostly block-aligned streams from 0, sometimes unaligned
        // ranges anywhere in the first 40 pages; len 0 is a no-op.
        const std::int64_t offset =
            roll < 35 ? 0 : rng.uniform(0, 40 * kPage);
        const std::int64_t len = rng.uniform(0, 24 * kPage);
        model.observe_access(path, offset, len);
        ref.observe_access(path, offset, len);
      } else if (roll < 62) {
        model.observe_remove(path);
        ref.observe_remove(path);
      } else {
        const std::int64_t size = rng.uniform(-kPage, 48 * kPage);
        ASSERT_EQ(model.resident_fraction(path, size),
                  ref.resident_fraction(path, size))
            << "seed " << seed << " op " << op << " path " << path
            << " size " << size;
      }
      ASSERT_EQ(model.tracked_pages(), ref.tracked_pages())
          << "seed " << seed << " op " << op;
      ASSERT_LE(model.tracked_files(), model.tracked_pages());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheModelDifferential,
                         ::testing::Values(0, 1, 3, 64, 1024));

// Unbounded unique paths (one page each) leave at most the modeled
// capacity behind: evicting a file's last page drops its entry.
TEST(CacheModel, ChurnKeepsStateBounded) {
  constexpr std::int64_t kCapacity = 256;
  CacheModel m(kCapacity * 8192, 8192);
  for (int i = 0; i < 200'000; ++i) {
    m.observe_access("/churn/session-" + std::to_string(i) + "/file.dat", 0,
                     4096);
  }
  EXPECT_LE(m.tracked_pages(), kCapacity);
  EXPECT_LE(m.tracked_files(), kCapacity);
  EXPECT_DOUBLE_EQ(
      m.resident_fraction("/churn/session-199999/file.dat", 4096), 1.0);
  EXPECT_DOUBLE_EQ(m.resident_fraction("/churn/session-0/file.dat", 4096),
                   0.0);
}

// Every wire's unlink drops the file from the live server's model, so a
// PUT-then-unlink workload leaves nothing behind in it.
TEST(CacheModelWire, UnlinkForgetsFilePages) {
  server::NestServerOptions opts;
  opts.capacity = 100'000'000;
  opts.http_port = opts.ftp_port = opts.gridftp_port = -1;
  auto server = server::NestServer::start(opts);
  ASSERT_TRUE(server.ok()) << server.error().to_string();
  (*server)->gsi().add_user("alice", "alice-secret", {"physics"});
  TransferCore& core = (*server)->dispatcher().core();
  auto chirp = client::ChirpClient::connect(
      "127.0.0.1", (*server)->chirp_port(), "alice", "alice-secret");
  ASSERT_TRUE(chirp.ok());
  ASSERT_TRUE(chirp->mkdir("/nfs").ok());
  ASSERT_TRUE(
      chirp->acl_set("/nfs",
                     "[ Principal = \"system:anyuser\"; Rights = \"rwlid\"; ]")
          .ok());
  auto nfs = client::NfsClient::connect("127.0.0.1", (*server)->nfs_port());
  ASSERT_TRUE(nfs.ok());
  auto dir = nfs->mount("/nfs");
  ASSERT_TRUE(dir.ok());

  const std::int64_t before = core.cache_tracked_pages();
  ASSERT_TRUE(chirp->put("/chirp.bin", std::string(40'000, 'c')).ok());
  ASSERT_TRUE(chirp->get("/chirp.bin").ok());
  EXPECT_GT(core.cache_tracked_pages(), before);
  ASSERT_TRUE(chirp->unlink("/chirp.bin").ok());
  EXPECT_EQ(core.cache_tracked_pages(), before);

  ASSERT_TRUE(chirp->put("/nfs/n.bin", std::string(40'000, 'n')).ok());
  ASSERT_TRUE(nfs->read_file(*dir, "n.bin").ok());
  EXPECT_GT(core.cache_tracked_pages(), before);
  ASSERT_TRUE(nfs->remove(*dir, "n.bin").ok());
  EXPECT_EQ(core.cache_tracked_pages(), before);
  (*server)->stop();
}

TEST(CacheModel, RemoveFreesEntryAndCapacity) {
  CacheModel m(4 * 8192, 8192);  // 4 pages
  m.observe_access("/a", 0, 3 * 8192);
  m.observe_access("/b", 0, 8192);
  m.observe_remove("/a");
  EXPECT_EQ(m.tracked_pages(), 1);
  EXPECT_EQ(m.tracked_files(), 1);
  // The freed pages are reusable without evicting /b.
  m.observe_access("/c", 0, 3 * 8192);
  EXPECT_DOUBLE_EQ(m.resident_fraction("/b", 8192), 1.0);
  EXPECT_DOUBLE_EQ(m.resident_fraction("/c", 3 * 8192), 1.0);
  m.observe_remove("/missing");
  EXPECT_EQ(m.tracked_pages(), 4);
}

// ---------- AdaptiveSelector ----------

TEST(Adaptive, WarmupDistributesEqually) {
  AdaptiveSelector::Options opts;
  opts.warmup_per_model = 5;
  AdaptiveSelector sel(opts);
  std::map<ConcurrencyModel, int> counts;
  for (int i = 0; i < 15; ++i) ++counts[sel.pick()];
  EXPECT_EQ(counts[ConcurrencyModel::threads], 5);
  EXPECT_EQ(counts[ConcurrencyModel::processes], 5);
  EXPECT_EQ(counts[ConcurrencyModel::events], 5);
}

TEST(Adaptive, ConvergesToThroughputWinner) {
  AdaptiveSelector::Options opts;
  opts.warmup_per_model = 2;
  opts.explore_fraction = 0.0;
  AdaptiveSelector sel(opts);
  for (int i = 0; i < 6; ++i) {
    const ConcurrencyModel m = sel.pick();
    // threads deliver 20 MB/s, others 10.
    sel.report(m, m == ConcurrencyModel::threads ? 20e6 : 10e6);
  }
  EXPECT_EQ(sel.best(), ConcurrencyModel::threads);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(sel.pick(), ConcurrencyModel::threads);
}

TEST(Adaptive, LatencyMetricPrefersLower) {
  AdaptiveSelector::Options opts;
  opts.metric = AdaptMetric::latency;
  opts.warmup_per_model = 1;
  opts.explore_fraction = 0.0;
  opts.enabled = {ConcurrencyModel::threads, ConcurrencyModel::events};
  AdaptiveSelector sel(opts);
  for (int i = 0; i < 2; ++i) {
    const ConcurrencyModel m = sel.pick();
    sel.report(m, m == ConcurrencyModel::events ? 0.5e6 : 3e6);  // ns
  }
  EXPECT_EQ(sel.best(), ConcurrencyModel::events);
}

TEST(Adaptive, ExplorationKeepsProbing) {
  AdaptiveSelector::Options opts;
  opts.warmup_per_model = 1;
  opts.explore_fraction = 0.3;
  AdaptiveSelector sel(opts);
  for (int i = 0; i < 3; ++i) {
    const ConcurrencyModel m = sel.pick();
    sel.report(m, m == ConcurrencyModel::threads ? 20e6 : 10e6);
  }
  std::map<ConcurrencyModel, int> counts;
  for (int i = 0; i < 400; ++i) {
    const ConcurrencyModel m = sel.pick();
    counts[m]++;
    sel.report(m, m == ConcurrencyModel::threads ? 20e6 : 10e6);
  }
  // Best dominates but all models keep being sampled (the paper's
  // "tries all models periodically" adaptation cost).
  EXPECT_GT(counts[ConcurrencyModel::threads], 250);
  EXPECT_GT(counts[ConcurrencyModel::processes], 10);
  EXPECT_GT(counts[ConcurrencyModel::events], 10);
}

TEST(Adaptive, RespectsEnabledSubset) {
  AdaptiveSelector::Options opts;
  opts.enabled = {ConcurrencyModel::threads, ConcurrencyModel::events};
  AdaptiveSelector sel(opts);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(sel.pick(), ConcurrencyModel::processes);
  }
}

TEST(Adaptive, AdaptsToWorkloadShift) {
  AdaptiveSelector::Options opts;
  opts.warmup_per_model = 2;
  opts.explore_fraction = 0.2;
  opts.alpha = 0.5;
  opts.enabled = {ConcurrencyModel::threads, ConcurrencyModel::events};
  AdaptiveSelector sel(opts);
  // Phase 1: events win.
  for (int i = 0; i < 60; ++i) {
    const ConcurrencyModel m = sel.pick();
    sel.report(m, m == ConcurrencyModel::events ? 20e6 : 10e6);
  }
  EXPECT_EQ(sel.best(), ConcurrencyModel::events);
  // Phase 2: workload shifts; threads win. Exploration must discover it.
  for (int i = 0; i < 300; ++i) {
    const ConcurrencyModel m = sel.pick();
    sel.report(m, m == ConcurrencyModel::threads ? 20e6 : 5e6);
  }
  EXPECT_EQ(sel.best(), ConcurrencyModel::threads);
}

TEST(Adaptive, ModelNames) {
  EXPECT_STREQ(model_name(ConcurrencyModel::threads), "threads");
  EXPECT_STREQ(model_name(ConcurrencyModel::processes), "processes");
  EXPECT_STREQ(model_name(ConcurrencyModel::events), "events");
  EXPECT_STREQ(model_name(ConcurrencyModel::staged), "staged");
}

TEST(Adaptive, StagedModelIsOptIn) {
  // Default (paper) configuration never picks the staged extension.
  AdaptiveSelector default_sel;
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(default_sel.pick(), ConcurrencyModel::staged);
  }
  // Explicitly enabled, it participates and can win.
  AdaptiveSelector::Options opts;
  opts.warmup_per_model = 2;
  opts.explore_fraction = 0.0;
  opts.enabled = {ConcurrencyModel::threads, ConcurrencyModel::staged};
  AdaptiveSelector sel(opts);
  for (int i = 0; i < 4; ++i) {
    const ConcurrencyModel m = sel.pick();
    sel.report(m, m == ConcurrencyModel::staged ? 30e6 : 20e6);
  }
  EXPECT_EQ(sel.best(), ConcurrencyModel::staged);
}

// ---------- TransferManager ----------

TEST(TransferManager, LifecycleAndAccounting) {
  ManualClock clock;
  TransferManager::Options opts;
  opts.scheduler = "fifo";
  opts.adaptive = false;
  TransferManager tm(clock, opts);
  auto* r = tm.create_request("chirp", Direction::read, "/f", 1000);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(tm.in_flight(), 1u);
  tm.enqueue(r);
  EXPECT_EQ(tm.next(), r);
  tm.charge(r, 1000);
  tm.complete(r);
  EXPECT_EQ(tm.total_bytes(), 1000);
  EXPECT_EQ(tm.completed_requests(), 1);
  EXPECT_TRUE(tm.idle());
}

TEST(TransferManager, ChargeFeedsCacheModel) {
  ManualClock clock;
  TransferManager::Options opts;
  opts.adaptive = false;
  TransferManager tm(clock, opts);
  auto* r = tm.create_request("http", Direction::read, "/hot", 16 * 1024);
  EXPECT_DOUBLE_EQ(r->cached_fraction, 0.0);  // first sight: cold
  tm.enqueue(r);
  tm.charge(r, 16 * 1024);
  tm.complete(r);
  // Second request for the same file is predicted hot.
  auto* r2 = tm.create_request("http", Direction::read, "/hot", 16 * 1024);
  EXPECT_DOUBLE_EQ(r2->cached_fraction, 1.0);
}

TEST(TransferManager, StrideAccessorOnlyForStride) {
  ManualClock clock;
  TransferManager::Options fifo_opts;
  fifo_opts.scheduler = "fifo";
  TransferManager fifo_tm(clock, fifo_opts);
  EXPECT_EQ(fifo_tm.stride(), nullptr);

  TransferManager::Options stride_opts;
  stride_opts.scheduler = "stride";
  TransferManager stride_tm(clock, stride_opts);
  ASSERT_NE(stride_tm.stride(), nullptr);
  stride_tm.stride()->set_tickets("nfs", 4);
}

TEST(TransferManager, FixedModelWhenNotAdaptive) {
  ManualClock clock;
  TransferManager::Options opts;
  opts.adaptive = false;
  opts.fixed_model = ConcurrencyModel::events;
  TransferManager tm(clock, opts);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(tm.pick_model(), ConcurrencyModel::events);
}

// ---------- Scheduler invariants (PR 3 test sweep) ----------

// Randomized arrival traces: when classes stay backlogged, per-class
// service must track the ticket ratio to within the scheduler's own lag
// bound (max_lag_bytes at the class's ticket share) plus one block of
// quantization. Seeded Rng => reproducible.
TEST(StrideInvariant, RandomTraceServiceWithinLagBound) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    Rng rng(seed);
    ManualClock clock;
    StrideScheduler::Options opts;
    opts.max_lag_bytes = 500'000;
    StrideScheduler s(clock, opts);
    const std::map<std::string, std::int64_t> tickets = {
        {"chirp", static_cast<std::int64_t>(rng.uniform(1, 5))},
        {"http", static_cast<std::int64_t>(rng.uniform(1, 5))},
        {"nfs", static_cast<std::int64_t>(rng.uniform(1, 5))}};
    std::int64_t total_tickets = 0;
    std::map<std::string, TransferRequest> reqs;
    for (const auto& [cls, t] : tickets) {
      s.set_tickets(cls, t);
      total_tickets += t;
      reqs.emplace(cls, make_req(reqs.size() + 1, cls));
      s.enqueue(&reqs.at(cls));
    }
    std::map<std::string, std::int64_t> delivered;
    std::int64_t total = 0;
    const std::int64_t max_block = 64 * 1024;
    for (int i = 0; i < 20'000; ++i) {
      TransferRequest* r = s.next();
      ASSERT_NE(r, nullptr);
      // Randomized per-quantum block size: 1 KB .. 64 KB.
      const std::int64_t bytes = rng.uniform(1024, max_block);
      s.charge(r, bytes);
      delivered[r->protocol] += bytes;
      total += bytes;
      clock.advance(rng.uniform(1, 100) * kMicrosecond);
      s.enqueue(r);  // stays backlogged
    }
    for (const auto& [cls, t] : tickets) {
      const double share = static_cast<double>(t) / total_tickets;
      const double expected = share * static_cast<double>(total);
      const double bound =
          static_cast<double>(opts.max_lag_bytes) + max_block;
      EXPECT_NEAR(static_cast<double>(delivered[cls]), expected, bound)
          << "seed " << seed << " class " << cls << " tickets " << t;
    }
  }
}

// Non-work-conserving holds are bounded: the scheduler may ask the server
// to idle for the absent low-pass class, but never longer than idle_wait.
TEST(StrideInvariant, NonWorkConservingHoldBoundedByIdleWait) {
  ManualClock clock;
  StrideScheduler::Options opts;
  opts.work_conserving = false;
  opts.idle_wait = 2 * kMillisecond;
  StrideScheduler s(clock, opts);
  s.set_tickets("nfs", 4);
  s.set_tickets("http", 1);
  auto h = make_req(1, "http");
  auto n = make_req(2, "nfs");
  s.enqueue(&n);
  ASSERT_EQ(s.next(), &n);
  s.charge(&n, 1000);
  s.enqueue(&h);
  ASSERT_EQ(s.next(), &h);
  s.charge(&h, 1000);
  s.enqueue(&h);
  // Hold engaged for absent NFS: bounded by idle_wait from now.
  ASSERT_EQ(s.next(), nullptr);
  EXPECT_LE(s.hold_until() - clock.now(), opts.idle_wait);
  // At the bound the scheduler must release work; repeated next() calls
  // never extend the hold for the same absence.
  clock.advance(opts.idle_wait);
  EXPECT_EQ(s.next(), &h);
}

// A class absent longer than rejoin_grace re-clamps to the global pass:
// its first grant is ordinary, with no catch-up monopoly afterwards.
TEST(StrideInvariant, RejoinGraceReclampsAbsentClassPass) {
  ManualClock clock;
  StrideScheduler::Options opts;
  opts.rejoin_grace = 50 * kMillisecond;
  StrideScheduler s(clock, opts);
  s.set_tickets("a", 1);
  s.set_tickets("b", 1);
  auto a = make_req(1, "a");
  auto b = make_req(2, "b");
  // Both run together briefly so 'b' has a pass at all.
  s.enqueue(&a);
  s.enqueue(&b);
  for (int i = 0; i < 4; ++i) {
    TransferRequest* r = s.next();
    ASSERT_NE(r, nullptr);
    s.charge(r, 1000);
    s.enqueue(r);
  }
  // Drain the queues, then only 'a' keeps running far past the grace.
  while (s.next() != nullptr) {
  }
  for (int i = 0; i < 200; ++i) {
    clock.advance(kMillisecond);
    s.enqueue(&a);
    TransferRequest* r = s.next();
    ASSERT_EQ(r, &a);
    s.charge(r, 1000);
  }
  // 'b' rejoins 200 ms after its last service — well past rejoin_grace.
  // Re-clamped to the global pass, it must alternate, not monopolize.
  s.enqueue(&b);
  int b_streak = 0;
  TransferRequest* r = s.next();
  while (r == &b && b_streak < 10) {
    ++b_streak;
    s.charge(r, 1000);
    s.enqueue(&b);
    s.enqueue(&a);
    r = s.next();
  }
  EXPECT_LT(b_streak, 3);
}

// Regression: a continuous stream of hot (cache-resident) requests must
// not starve cold requests forever — the aging bound serves the cold head
// after at most `aging_limit` consecutive hot grants.
TEST(CacheAware, ColdRequestsCannotStarveUnderHotStream) {
  const int aging_limit = 8;
  CacheAwareScheduler s(0.99, aging_limit);
  auto cold = make_req(1, "http");
  cold.cached_fraction = 0.0;
  s.enqueue(&cold);
  // An endless hot stream: every grant is immediately replaced.
  std::vector<std::unique_ptr<TransferRequest>> hot;
  auto feed_hot = [&] {
    hot.push_back(std::make_unique<TransferRequest>(
        make_req(100 + hot.size(), "chirp")));
    hot.back()->cached_fraction = 1.0;
    s.enqueue(hot.back().get());
  };
  feed_hot();
  int grants_until_cold = 0;
  for (;; ++grants_until_cold) {
    ASSERT_LE(grants_until_cold, aging_limit + 1) << "cold request starved";
    TransferRequest* r = s.next();
    ASSERT_NE(r, nullptr);
    if (r == &cold) break;
    feed_hot();
  }
  EXPECT_LE(grants_until_cold, aging_limit);
  // With no cold work pending the hot band runs uninterrupted (the aging
  // counter only advances while something cold actually waits).
  for (int i = 0; i < 50; ++i) {
    TransferRequest* r = s.next();
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->cached_fraction, 1.0);
    feed_hot();
  }
}

}  // namespace
}  // namespace nest::transfer

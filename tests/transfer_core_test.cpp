// Concurrent transfer-lifecycle stress tests for transfer::TransferCore
// (labelled `concurrency` in CTest; the tier-1 script also runs them under
// ThreadSanitizer via the `tsan` CMake preset).
//
// The properties under test are the ones the one-lock core with
// per-request grant words must preserve:
//   * conservation: every charged byte and every completed request is
//     counted exactly once, no matter how many threads charge at once;
//   * no lost wakeups: a released slot always reaches a waiter, even with
//     a single slot and many contending threads;
//   * proportional share under threads: blocking acquire/release grants
//     stride classes bytes in ticket ratio;
//   * scheduler order: the substrate-driven (submit/try_grant) interface
//     grants in exactly the order the configured scheduler decides.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "transfer/core.h"

namespace nest::transfer {
namespace {

TransferManager::Options fifo_options() {
  TransferManager::Options o;
  o.adaptive = false;
  return o;
}

// N threads x M requests x B blocks through the full lifecycle. The
// assertions are pure conservation laws; the run finishing at all is the
// no-deadlock/no-lost-wakeup check.
void run_stress(const std::string& scheduler, int slots, int threads,
                int requests_per_thread, int blocks_per_request) {
  TransferManager::Options opts = fifo_options();
  opts.scheduler = scheduler;
  TransferManager tm(RealClock::instance(), opts);
  TransferCore core(tm, slots);
  constexpr std::int64_t kBlockBytes = 1000;
  const std::vector<std::string> protocols = {"chirp", "http", "gridftp",
                                              "nfs"};

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::string& proto =
          protocols[static_cast<std::size_t>(t) % protocols.size()];
      for (int i = 0; i < requests_per_thread; ++i) {
        const std::string path =
            "/t" + std::to_string(t) + "/f" + std::to_string(i);
        TransferRequest* r = core.create_request(
            proto, Direction::read, path,
            kBlockBytes * blocks_per_request, "user" + std::to_string(t));
        for (int b = 0; b < blocks_per_request; ++b) {
          core.acquire(r);
          core.charge(r, kBlockBytes);
          core.release();
        }
        core.complete(r);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const std::int64_t total_requests =
      static_cast<std::int64_t>(threads) * requests_per_thread;
  const std::int64_t total_bytes =
      total_requests * blocks_per_request * kBlockBytes;
  EXPECT_EQ(tm.total_bytes(), total_bytes);
  EXPECT_EQ(tm.completed_requests(), total_requests);
  EXPECT_EQ(tm.in_flight(), 0u);
  EXPECT_EQ(core.free_slots(), slots);  // every grant was paired
  // Every class's atomic counter is exact too.
  std::map<std::string, std::int64_t> per_class;
  for (int t = 0; t < threads; ++t) {
    per_class[protocols[static_cast<std::size_t>(t) % protocols.size()]] +=
        std::int64_t{requests_per_thread} * blocks_per_request * kBlockBytes;
  }
  EXPECT_EQ(core.class_bytes(), per_class);
}

TEST(TransferCoreStress, ConservationFifo) {
  run_stress("fifo", /*slots=*/4, /*threads=*/8, /*requests=*/100,
             /*blocks=*/4);
}

TEST(TransferCoreStress, ConservationStride) {
  run_stress("stride", /*slots=*/4, /*threads=*/8, /*requests=*/100,
             /*blocks=*/4);
}

TEST(TransferCoreStress, ConservationCacheAware) {
  run_stress("cache-aware", /*slots=*/4, /*threads=*/8, /*requests=*/100,
             /*blocks=*/4);
}

// The hard lost-wakeup case: one slot, many threads — every release must
// hand the slot to exactly one waiter or the run hangs.
TEST(TransferCoreStress, SingleSlotNoLostWakeups) {
  run_stress("fifo", /*slots=*/1, /*threads=*/16, /*requests=*/25,
             /*blocks=*/2);
}

TEST(TransferCoreStress, ManySlotsManyThreads) {
  run_stress("fifo", /*slots=*/8, /*threads=*/32, /*requests=*/25,
             /*blocks=*/2);
}

// Stride order under real threads: one slot, classes "a" and "b" at 3:1
// tickets, four threads per class looping acquire / charge(64 KiB) /
// release. The holder sleeps while it holds the slot, as a block's I/O
// would, so the other threads are queued at each grant and both classes
// stay backlogged. Once every thread has run, the next kWarmup grants
// settle the passes and the kWindow grants after them must split bytes
// 3:1 within 10%; every byte is conserved.
TEST(TransferCoreStress, StrideShareUnderThreads) {
  TransferManager::Options opts = fifo_options();
  opts.scheduler = "stride";
  TransferManager tm(RealClock::instance(), opts);
  TransferCore core(tm, /*slots=*/1);
  tm.stride()->set_tickets("a", 3);
  tm.stride()->set_tickets("b", 1);
  constexpr std::int64_t kBlock = 64 * 1024;
  constexpr int kThreads = 8;  // even: a, b, a, b, ...
  constexpr int kWarmup = 200;
  constexpr int kWindow = 2000;
  std::atomic<int> started{0};
  std::atomic<int> counted{0};
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> window_a{0}, window_b{0};
  std::atomic<std::int64_t> moved_a{0}, moved_b{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    const bool is_a = t % 2 == 0;
    workers.emplace_back([&, is_a] {
      TransferRequest* r = core.create_request(
          is_a ? "a" : "b", Direction::read, "/s", /*size=*/0);
      bool first = true;
      while (!stop.load()) {
        core.acquire(r);
        if (first) {
          first = false;
          ++started;
        }
        if (started.load() == kThreads) {
          const int n = counted.fetch_add(1) - kWarmup;
          if (n >= 0 && n < kWindow) (is_a ? window_a : window_b) += kBlock;
          if (n + 1 >= kWindow) stop = true;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        core.charge(r, kBlock);
        (is_a ? moved_a : moved_b) += kBlock;
        core.release();
      }
      core.complete(r);
    });
  }
  for (std::thread& w : workers) w.join();

  ASSERT_GT(window_b.load(), 0);
  const double ratio = static_cast<double>(window_a.load()) /
                       static_cast<double>(window_b.load());
  EXPECT_NEAR(ratio, 3.0, 0.3)
      << "a=" << window_a.load() << " b=" << window_b.load();
  EXPECT_EQ(window_a + window_b, kWindow * kBlock);
  EXPECT_EQ(tm.total_bytes(), moved_a + moved_b);
  const std::map<std::string, std::int64_t> expect = {{"a", moved_a.load()},
                                                      {"b", moved_b.load()}};
  EXPECT_EQ(core.class_bytes(), expect);
  EXPECT_EQ(tm.in_flight(), 0u);
  EXPECT_EQ(core.free_slots(), 1);
}

// Concurrent lifecycle calls interleaved with monitoring reads (every ad
// and /stats query does exactly this in real mode).
TEST(TransferCoreStress, MonitoringReadsDuringTraffic) {
  TransferManager tm(RealClock::instance(), fifo_options());
  TransferCore core(tm, 4);
  std::atomic<bool> stop{false};
  std::thread monitor([&] {
    while (!stop.load()) {
      (void)tm.in_flight();
      (void)tm.total_bytes();
      (void)tm.completed_requests();
      (void)core.class_bytes();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        TransferRequest* r = core.create_request(
            "chirp", Direction::read, "/m" + std::to_string(t), 1000);
        core.acquire(r);
        core.charge(r, 1000);
        core.release();
        core.complete(r);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true);
  monitor.join();
  EXPECT_EQ(tm.total_bytes(), 4 * 200 * 1000);
  EXPECT_EQ(core.class_bytes().at("chirp"), 4 * 200 * 1000);
  EXPECT_EQ(tm.in_flight(), 0u);
}

// Blocking interface (what connection threads use): with the only slot
// held, a second acquire parks until the holder releases.
TEST(TransferCoreBlocking, SecondAcquireWaitsForRelease) {
  ManualClock clock;
  TransferManager tm(clock, fifo_options());
  TransferCore core(tm, /*slots=*/1);
  TransferRequest* r1 =
      core.create_request("chirp", Direction::read, "/a", 10);
  core.acquire(r1);  // takes the only slot immediately
  std::atomic<bool> second_granted{false};
  TransferRequest* r2 =
      core.create_request("chirp", Direction::read, "/b", 10);
  std::thread waiter([&] {
    core.acquire(r2);
    second_granted = true;
    core.release();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_granted.load());  // blocked: slot held
  core.release();
  waiter.join();
  EXPECT_TRUE(second_granted.load());
  core.complete(r1);
  core.complete(r2);
  EXPECT_EQ(core.free_slots(), 1);
}

// Substrate-driven interface (what the sim engine uses): grants come back
// in scheduler order and slots are consumed/returned exactly.
TEST(TransferCoreSubstrate, GrantsInSchedulerOrder) {
  ManualClock clock;
  TransferManager tm(clock, fifo_options());
  TransferCore core(tm, /*slots=*/1);
  TransferRequest* r1 =
      core.create_request("chirp", Direction::read, "/a", 10);
  TransferRequest* r2 =
      core.create_request("chirp", Direction::read, "/b", 10);
  core.submit(r1);
  core.submit(r2);
  EXPECT_EQ(core.try_grant(), r1);       // FIFO: first submitted wins
  EXPECT_EQ(core.try_grant(), nullptr);  // no free slot
  core.release_slot();
  EXPECT_EQ(core.try_grant(), r2);
  core.release_slot();
  EXPECT_EQ(core.try_grant(), nullptr);  // queue empty
  core.complete(r1);
  core.complete(r2);
  EXPECT_EQ(tm.in_flight(), 0u);
}

// Scheduler charges must reach the scheduler before the next grant
// decision: with a 1:2 stride share and equal backlogs, the class with
// more tickets gets proportionally more grants.
TEST(TransferCoreSubstrate, ChargesReachSchedulerBeforeNextGrant) {
  ManualClock clock;
  TransferManager::Options opts = fifo_options();
  opts.scheduler = "stride";
  TransferManager tm(clock, opts);
  TransferCore core(tm, /*slots=*/1);
  tm.stride()->set_tickets("http", 2);
  tm.stride()->set_tickets("nfs", 1);
  TransferRequest* h =
      core.create_request("http", Direction::read, "/h", 1 << 20);
  TransferRequest* n =
      core.create_request("nfs", Direction::read, "/n", 1 << 20);
  std::map<std::string, int> grants;
  core.submit(h);
  core.submit(n);
  for (int i = 0; i < 30; ++i) {
    TransferRequest* g = core.try_grant();
    ASSERT_NE(g, nullptr);
    ++grants[g->protocol];
    core.charge(g, 1000);  // equal quanta; stride passes diverge by ticket
    core.release_slot();
    core.submit(g);  // re-enter, as block protocols do
  }
  EXPECT_GT(grants["http"], grants["nfs"]);
  EXPECT_NEAR(static_cast<double>(grants["http"]) / grants["nfs"], 2.0,
              0.5);
}

}  // namespace
}  // namespace nest::transfer

// Scale-invariant sweep (ROADMAP item 4): the properties that make the
// appliance safe to point a million-user grid population at.
//
// Three families:
//  * StrideScale — the lazy two-tier stride scheduler holds its
//    invariants at 10^5 scheduling classes: memory is O(active +
//    inactive_capacity + pinned) rather than O(every user ever seen),
//    proportional share survives crowd churn, and an LRU-evicted class
//    rejoining gets *no* catch-up credit (eviction behaves exactly like
//    long absence), while a momentary drain keeps its bounded lag.
//  * AdmissionScale — under 2x open-loop overload the latency-target
//    shedder keeps admitted-request P99 under the target while the same
//    workload without admission control queues without bound; and no
//    protocol class is starved by the others' load.
//  * LoadScale — the full open-loop generator drives SCALE_USERS
//    (default 10^5) user sessions through the sim appliance in bounded
//    memory: active coroutines track offered load, not population size.
//
// SCALE_USERS=<n> scales the user population (soak: 10^6); the default
// keeps tier-1 fast while still exercising the 10^5 regime the paper's
// grid deployments imply.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/clock.h"
#include "loadgen/loadgen.h"
#include "sim/engine.h"
#include "sim/platform.h"
#include "simnest/protocol_model.h"
#include "simnest/simnest.h"
#include "transfer/admission.h"
#include "transfer/scheduler.h"

namespace nest {
namespace {

using transfer::ShareClass;
using transfer::StrideScheduler;
using transfer::TransferRequest;

std::size_t scale_users() {
  if (const char* env = std::getenv("SCALE_USERS")) {
    const unsigned long long n = std::strtoull(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 100'000;
}

constexpr std::int64_t kBlock = 64 * 1024;

TransferRequest user_req(const std::string& user) {
  TransferRequest r;
  r.protocol = "chirp";
  r.user = user;
  return r;
}

// ---------- StrideScale ----------

TEST(StrideScale, MemoryIsOActivePlusCapacityUnderUserChurn) {
  ManualClock clock;
  StrideScheduler::Options opts;
  opts.share_class = ShareClass::by_user;
  opts.inactive_capacity = 1024;
  StrideScheduler s(clock, opts);

  const std::size_t n = scale_users();
  TransferRequest r = user_req("");
  for (std::size_t i = 0; i < n; ++i) {
    r.user = "u" + std::to_string(i);
    s.enqueue(&r);
    ASSERT_EQ(s.next(), &r);
    s.charge(&r, kBlock);
    clock.advance(10'000);
  }
  // Every one of the n users came and went; state retained is bounded by
  // the configured inactive capacity, not the population.
  EXPECT_EQ(s.active_count(), 0u);
  EXPECT_LE(s.state_count(), opts.inactive_capacity);
  EXPECT_EQ(s.inactive_count(), s.state_count());
  EXPECT_EQ(s.evictions(),
            static_cast<std::int64_t>(n - opts.inactive_capacity));
  EXPECT_TRUE(s.empty());
}

TEST(StrideScale, ProportionalShareSurvivesCrowdChurn) {
  ManualClock clock;
  StrideScheduler::Options opts;
  opts.share_class = ShareClass::by_user;
  opts.inactive_capacity = 64;
  StrideScheduler s(clock, opts);
  s.set_tickets("alice", 4);
  s.set_tickets("bob", 1);

  TransferRequest alice = user_req("alice");
  TransferRequest bob = user_req("bob");
  s.enqueue(&alice);
  s.enqueue(&bob);

  std::int64_t alice_bytes = 0, bob_bytes = 0, churn_seq = 0;
  TransferRequest churn = user_req("");
  for (int quantum = 0; quantum < 20'000; ++quantum) {
    // A steady trickle of one-shot strangers churns the inactive tier
    // far past its capacity while the two pinned users compete.
    if (quantum % 4 == 0) {
      churn.user = "crowd" + std::to_string(churn_seq++);
      s.enqueue(&churn);
    }
    TransferRequest* got = s.next();
    ASSERT_NE(got, nullptr);
    s.charge(got, kBlock);
    if (got == &alice) {
      alice_bytes += kBlock;
      s.enqueue(&alice);  // persistent users always have work pending
    } else if (got == &bob) {
      bob_bytes += kBlock;
      s.enqueue(&bob);
    }
    clock.advance(5'000);
  }
  ASSERT_GT(bob_bytes, 0);
  const double ratio =
      static_cast<double>(alice_bytes) / static_cast<double>(bob_bytes);
  EXPECT_NEAR(ratio, 4.0, 0.4) << "4:1 tickets must survive crowd churn";
  // The crowd blew through the inactive tier; the pinned users did not go
  // with it.
  EXPECT_GT(s.evictions(), 0);
  EXPECT_EQ(s.pinned_count(), 2u);
  EXPECT_LE(s.state_count(), opts.inactive_capacity + 2 + 2);
}

// Helper: serve the scheduler until `persistent` has been granted `m`
// quanta (requeueing it each time), advancing the clock `step` per grant.
void pump_persistent(StrideScheduler& s, ManualClock& clock,
                     TransferRequest* persistent, int m, Nanos step) {
  for (int i = 0; i < m; ++i) {
    TransferRequest* got = s.next();
    ASSERT_EQ(got, persistent);
    s.charge(got, kBlock);
    s.enqueue(persistent);
    clock.advance(step);
  }
}

// Count how many consecutive quanta `probe` wins from the head of the
// schedule before `persistent` gets service again.
int catchup_burst(StrideScheduler& s, TransferRequest* probe,
                  TransferRequest* persistent) {
  int burst = 0;
  for (int i = 0; i < 1'000; ++i) {
    TransferRequest* got = s.next();
    EXPECT_NE(got, nullptr);
    s.charge(got, kBlock);
    if (got == persistent) {
      s.enqueue(persistent);
      return burst;
    }
    EXPECT_EQ(got, probe);
    ++burst;
    s.enqueue(probe);
  }
  return burst;
}

TEST(StrideScale, MomentaryDrainKeepsBoundedLag) {
  ManualClock clock;
  StrideScheduler::Options opts;
  opts.share_class = ShareClass::by_user;
  opts.max_lag_bytes = 4 * kBlock;
  opts.rejoin_grace = 50 * kMillisecond;
  StrideScheduler s(clock, opts);

  TransferRequest a = user_req("a");
  TransferRequest z = user_req("z");
  // z runs once, drains, and stays briefly absent while a accumulates a
  // large pass advantage.
  s.enqueue(&z);
  ASSERT_EQ(s.next(), &z);
  s.charge(&z, kBlock);
  s.enqueue(&a);
  pump_persistent(s, clock, &a, 100, kMillisecond / 4);  // 25 ms < grace

  // Rejoin within the grace window: catch-up is allowed but clamped to
  // max_lag_bytes — a burst of at most 4 quanta, not 100.
  s.enqueue(&z);
  const int burst = catchup_burst(s, &z, &a);
  EXPECT_GE(burst, 3);
  EXPECT_LE(burst, 5);
}

TEST(StrideScale, EvictedRejoinReclampsLikeLongAbsence) {
  ManualClock clock;
  StrideScheduler::Options opts;
  opts.share_class = ShareClass::by_user;
  opts.max_lag_bytes = 4 * kBlock;
  opts.rejoin_grace = 365 * 24 * 3600 * kSecond;  // grace never expires
  opts.inactive_capacity = 8;
  StrideScheduler s(clock, opts);

  TransferRequest a = user_req("a");
  TransferRequest z = user_req("z");
  s.enqueue(&z);
  ASSERT_EQ(s.next(), &z);
  s.charge(&z, kBlock);
  s.enqueue(&a);
  pump_persistent(s, clock, &a, 100, kMillisecond / 4);

  // Churn enough strangers through the drained tier to evict z.
  TransferRequest churn = user_req("");
  for (int i = 0; i < 64; ++i) {
    churn.user = "crowd" + std::to_string(i);
    s.enqueue(&churn);
    // a still holds the min pass until its debt is repaid; drain whatever
    // next() picks so the stranger passes through and retires.
    TransferRequest* got = s.next();
    ASSERT_NE(got, nullptr);
    s.charge(got, kBlock);
    if (got == &a) s.enqueue(&a);
    if (got == &churn) continue;
  }
  ASSERT_GT(s.evictions(), 0);

  // Drain any stranger still pending so only a competes with z.
  while (true) {
    TransferRequest* got = s.next();
    ASSERT_NE(got, nullptr);
    s.charge(got, kBlock);
    if (got == &a) {
      s.enqueue(&a);
      break;
    }
  }

  // z's state is gone. Even though the grace window never expired, its
  // rejoin re-clamps to the global pass — the same rule as long absence —
  // so eviction minted no catch-up credit: z cannot burst past a.
  s.enqueue(&z);
  const int burst = catchup_burst(s, &z, &a);
  EXPECT_LE(burst, 2) << "eviction must not grant catch-up credit";
}

// ---------- AdmissionScale ----------

struct OverloadResult {
  loadgen::LoadGenStats gen;
  double p99_ms = 0.0;
  transfer::AdmissionController::Snapshot admission;
};

// Offered load ~2x the appliance's service capacity for 64 KB cached
// files on the 36 MB/s link (~570 files/s): ~325 sessions/s * ~3.5 ops.
// Small files keep per-op *service* time well under the latency target,
// so the admitted-request tail measures what the shedder controls —
// queueing — not the physics of a multi-round-trip transfer.
OverloadResult run_overload(transfer::AdmissionOptions admission,
                            std::uint64_t seed) {
  sim::Engine eng;
  simnest::SimHost host(eng, sim::PlatformProfile::linux2_2());
  simnest::SimNestConfig cfg;
  cfg.tm.adaptive = false;
  cfg.admission = admission;
  simnest::SimNest server(host, cfg);

  loadgen::LoadGenOptions lg;
  lg.seed = seed;
  lg.sessions = 2'000;
  lg.arrivals.rate_per_sec = 325.0;
  lg.files = 50;
  lg.file_size = 64 * 1024;
  lg.zipf_theta = 0.8;
  loadgen::OpenLoopGenerator gen(server, lg);
  gen.start();
  eng.run();

  OverloadResult out;
  out.gen = gen.stats();
  out.p99_ms = server.latency_percentile_ms(99);
  out.admission = server.admission().snapshot();
  return out;
}

TEST(AdmissionScale, ShedderHoldsP99UnderTargetAtTwiceCapacity) {
  transfer::AdmissionOptions on;
  on.target_ms = 400.0;
  on.max_queue = 16;
  const auto shed = run_overload(on, /*seed=*/7);
  const auto unshed = run_overload(transfer::AdmissionOptions{}, /*seed=*/7);

  // Open-loop 2x overload without admission control: queues grow without
  // bound and the completed-transfer tail blows far past the target.
  ASSERT_EQ(unshed.gen.ops_shed, 0u);
  EXPECT_GT(unshed.p99_ms, 4 * on.target_ms);

  // With the shedder: real shedding happened, everything admitted
  // finished inside the target, and throughput was preserved (the shed
  // run completes a comparable volume — shedding sheds, it doesn't
  // collapse service).
  EXPECT_GT(shed.gen.ops_shed, 0u);
  EXPECT_GT(shed.gen.ops_completed, 0u);
  EXPECT_LT(shed.p99_ms, on.target_ms);
  EXPECT_GT(shed.gen.ops_completed * 2, unshed.gen.ops_completed);
  // Shed replies are cheap: sessions still finished.
  EXPECT_EQ(shed.gen.sessions_finished, shed.gen.sessions_started);
  // Counters reconcile.
  EXPECT_EQ(shed.admission.shed,
            static_cast<std::int64_t>(shed.gen.ops_shed));
}

TEST(AdmissionScale, NoProtocolClassIsStarvedByShedding) {
  transfer::AdmissionOptions on;
  on.target_ms = 400.0;
  on.max_queue = 64;
  const auto shed = run_overload(on, /*seed=*/11);
  ASSERT_GT(shed.gen.ops_shed, 0u);
  // Every protocol in the mix must have completed work despite heavy
  // shedding: the per-class escape hatch admits a request whenever its
  // class has nothing outstanding.
  for (const auto& [proto, issued] : shed.gen.issued_by_protocol) {
    const auto it = shed.gen.shed_by_protocol.find(proto);
    const std::uint64_t lost = it == shed.gen.shed_by_protocol.end()
                                   ? 0
                                   : it->second;
    EXPECT_LT(lost, issued) << proto << " was fully starved by shedding";
  }
}

// ---------- AdmissionUnit ----------
// Deterministic single-object coverage of every shed verdict (the sim
// workloads above mostly exercise the queue bound; the predictor and the
// fair-share cap are pinned down here on a ManualClock).

TEST(AdmissionUnit, DisabledControllerAdmitsEverything) {
  ManualClock clock;
  transfer::AdmissionController ac(clock, transfer::AdmissionOptions{});
  EXPECT_FALSE(ac.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ac.admit("http", "u"),
              transfer::AdmissionController::Verdict::admitted);
  }
}

TEST(AdmissionUnit, QueueBoundShedsAndReleasesOnCompletion) {
  ManualClock clock;
  transfer::AdmissionOptions o;
  o.max_queue = 4;
  transfer::AdmissionController ac(clock, o);
  for (int i = 0; i < 4; ++i) ac.on_create("http", "u" + std::to_string(i));
  EXPECT_EQ(ac.admit("http", "u9"),
            transfer::AdmissionController::Verdict::shed_queue);
  ac.on_complete("http", "u0");
  EXPECT_EQ(ac.admit("http", "u9"),
            transfer::AdmissionController::Verdict::admitted);
}

TEST(AdmissionUnit, PerUserFairShareShedsTheHogNotTheRest) {
  ManualClock clock;
  transfer::AdmissionOptions o;
  o.max_queue = 8;
  transfer::AdmissionController ac(clock, o);
  // alice holds 4 slots, bob 1: share = max(1, 8/2 users) = 4.
  for (int i = 0; i < 4; ++i) ac.on_create("http", "alice");
  ac.on_create("http", "bob");
  EXPECT_EQ(ac.admit("http", "alice"),
            transfer::AdmissionController::Verdict::shed_user);
  EXPECT_EQ(ac.admit("http", "bob"),
            transfer::AdmissionController::Verdict::admitted);
  const auto s = ac.snapshot();
  EXPECT_EQ(s.shed_user, 1);
  EXPECT_EQ(s.active_users, 2u);
}

TEST(AdmissionUnit, LatencyPredictionShedsWithPerClassEscape) {
  ManualClock clock;
  transfer::AdmissionOptions o;
  o.target_ms = 100.0;  // headroom 0.5 -> 50 ms predicted-wait budget
  transfer::AdmissionController ac(clock, o);
  // Cold start: nothing to predict from, so the first arrivals pass.
  EXPECT_EQ(ac.admit("http", "u"),
            transfer::AdmissionController::Verdict::admitted);
  // Teach the estimator a 100/s completion rate over one full window.
  for (int i = 0; i < 20; ++i) {
    ac.on_create("http", "u");
    clock.advance(10 * kMillisecond);
    ac.on_complete("http", "u");
  }
  // 10 outstanding at 100/s predicts 110 ms for the next arrival: over
  // budget, so http (which has work outstanding) is shed...
  for (int i = 0; i < 10; ++i) ac.on_create("http", "u");
  EXPECT_EQ(ac.admit("http", "u2"),
            transfer::AdmissionController::Verdict::shed_latency);
  // ...but a protocol with nothing outstanding gets its probe through:
  // no class can be starved into losing its rate signal entirely.
  EXPECT_EQ(ac.admit("nfs", "u2"),
            transfer::AdmissionController::Verdict::admitted);
  const auto s = ac.snapshot();
  EXPECT_NEAR(s.completion_rate_per_sec, 100.0, 10.0);
  EXPECT_GT(s.predicted_wait_ms, o.target_ms * o.headroom);
}

TEST(AdmissionUnit, BookkeepingStaysOActiveUnderUserChurn) {
  ManualClock clock;
  transfer::AdmissionOptions o;
  o.max_queue = 1'000'000;
  transfer::AdmissionController ac(clock, o);
  const std::size_t n = 10'000;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string user = "u" + std::to_string(i);
    ac.on_create("http", user);
    clock.advance(10'000);
    ac.on_complete("http", user);
  }
  const auto s = ac.snapshot();
  EXPECT_EQ(s.outstanding, 0);
  EXPECT_EQ(s.active_users, 0u) << "per-user counts must erase at zero";
  EXPECT_EQ(s.active_classes, 0u);
}

// ---------- LoadScale ----------

TEST(LoadScale, PopulationScaleRunCompletesInBoundedState) {
  const std::size_t users = scale_users();

  sim::Engine eng;
  simnest::SimHost host(eng, sim::PlatformProfile::linux2_2());
  simnest::SimNestConfig cfg;
  cfg.tm.adaptive = false;
  cfg.tm.scheduler = "stride-user";
  cfg.admission.target_ms = 50.0;
  cfg.admission.max_queue = 32;
  simnest::SimNest server(host, cfg);

  loadgen::LoadGenOptions lg;
  lg.seed = 42;
  lg.sessions = users;
  lg.arrivals.rate_per_sec = 5'000.0;
  lg.arrivals.burst_factor = 4.0;  // MMPP bursts, as grid arrivals come
  lg.session.mean_extra_ops = 1.0;
  lg.session.protocol_mix = {{"http", 0.6}, {"chirp", 0.4}};
  lg.files = 64;
  lg.file_size = 64 * 1024;
  loadgen::OpenLoopGenerator gen(server, lg);
  gen.start();
  eng.run();

  const auto& st = gen.stats();
  EXPECT_EQ(st.sessions_started, users);
  EXPECT_EQ(st.sessions_finished, users);
  EXPECT_EQ(st.ops_completed + st.ops_shed, st.ops_issued);
  EXPECT_GT(st.ops_completed, 0u);

  // The whole population passed through, but live state tracked offered
  // load, not population: coroutine frames, admission bookkeeping, and
  // per-user scheduler classes all stay orders of magnitude below n.
  EXPECT_LT(st.peak_active_sessions,
            static_cast<std::int64_t>(users / 10 + 1'000));
  const auto adm = server.admission().snapshot();
  EXPECT_EQ(adm.outstanding, 0);
  EXPECT_LE(adm.active_users, 0u + cfg.admission.max_queue);
  auto* stride = server.tm().stride();
  ASSERT_NE(stride, nullptr);
  EXPECT_LE(stride->state_count(),
            transfer::StrideScheduler::Options{}.inactive_capacity + 64);
  EXPECT_LT(static_cast<std::size_t>(stride->state_count()), users);
  EXPECT_GT(stride->evictions(), 0);
}

}  // namespace
}  // namespace nest

// Ablation A7 — appliance throughput vs open-loop offered load, at three
// user-population sizes (ROADMAP item 4).
//
// The open-loop generator offers load at a configured rate regardless of
// how the server keeps up — the regime a grid population creates and the
// one a closed-loop bench client can never produce. Two things to see:
//  * Scale-invariance: the goodput-vs-offered-load curve is a property
//    of offered *rate*, not population size — 10^3 and 10^5 users at the
//    same rate land on the same curve, and server-side state stays
//    bounded (peak active sessions track rate x session length).
//  * Admission control: past saturation, the shedder holds goodput at
//    capacity and admitted-request latency near the target while the
//    no-admission server's latency grows with the backlog; the busy
//    replies carry the overload instead of the queues.
#include <cstdio>
#include <string>

#include "loadgen/loadgen.h"
#include "sim/engine.h"
#include "sim/platform.h"
#include "simnest/simnest.h"
#include "transfer/admission.h"

using namespace nest;
using namespace nest::simnest;

namespace {

// Measured service capacity for this workload shape (64 KB cached files
// on the 36 MB/s simulated link): roughly 570 ops/s.
constexpr double kCapacityOpsPerSec = 570.0;
// Mean ops per session for mean_extra_ops = 1: 1 + E[floor(Exp(1))].
constexpr double kMeanOpsPerSession = 1.582;

struct RunResult {
  double offered_ops_per_sec = 0;
  double goodput_ops_per_sec = 0;
  double shed_fraction = 0;
  double admitted_p99_ms = 0;
  std::int64_t peak_active = 0;
};

RunResult run_one(std::size_t users, double load_factor, bool admission_on) {
  sim::Engine eng;
  SimHost host(eng, sim::PlatformProfile::linux2_2());
  SimNestConfig cfg;
  cfg.tm.adaptive = false;
  if (admission_on) {
    cfg.admission.target_ms = 400.0;
    cfg.admission.max_queue = 16;
  }
  SimNest server(host, cfg);

  loadgen::LoadGenOptions lg;
  lg.seed = 99 + users;
  lg.sessions = users;
  lg.arrivals.rate_per_sec =
      load_factor * kCapacityOpsPerSec / kMeanOpsPerSession;
  lg.session.mean_extra_ops = 1.0;
  lg.files = 64;
  lg.file_size = 64 * 1024;
  loadgen::OpenLoopGenerator gen(server, lg);
  gen.start();
  eng.run();

  const auto& st = gen.stats();
  // Rate over the span the load was actually offered (first arrival to
  // engine drain; the drain tail is part of serving the load).
  const double span = to_seconds(eng.now());
  RunResult r;
  r.offered_ops_per_sec = static_cast<double>(st.ops_issued) / span;
  r.goodput_ops_per_sec = static_cast<double>(st.ops_completed) / span;
  r.shed_fraction = st.ops_issued == 0
                        ? 0.0
                        : static_cast<double>(st.ops_shed) /
                              static_cast<double>(st.ops_issued);
  r.admitted_p99_ms = server.latency_percentile_ms(99);
  r.peak_active = st.peak_active_sessions;
  return r;
}

}  // namespace

int main() {
  std::printf("Ablation A7: throughput vs open-loop offered load\n");
  std::printf(
      "64 KB cached files, capacity ~%.0f ops/s; admission target 400 ms, "
      "queue bound 16\n\n",
      kCapacityOpsPerSec);

  const std::size_t kUserCounts[] = {1'000, 10'000, 100'000};
  const double kLoadFactors[] = {0.5, 1.0, 2.0, 4.0};

  std::printf("  %-9s %5s  %9s  %9s  %6s  %8s  %8s\n", "users", "load",
              "offered/s", "goodput/s", "shed%", "p99(ms)", "peak-act");
  for (const std::size_t users : kUserCounts) {
    for (const double f : kLoadFactors) {
      const RunResult r = run_one(users, f, /*admission_on=*/true);
      std::printf("  %-9zu %4.1fx  %9.1f  %9.1f  %5.1f%%  %8.1f  %8lld\n",
                  users, f, r.offered_ops_per_sec, r.goodput_ops_per_sec,
                  100.0 * r.shed_fraction, r.admitted_p99_ms,
                  static_cast<long long>(r.peak_active));
      std::printf(
          "{\"bench\":\"abl_scale\",\"admission\":true,\"users\":%zu,"
          "\"load_factor\":%.1f,\"offered_ops_per_sec\":%.1f,"
          "\"goodput_ops_per_sec\":%.1f,\"shed_fraction\":%.3f,"
          "\"admitted_p99_ms\":%.1f,\"peak_active_sessions\":%lld}\n",
          users, f, r.offered_ops_per_sec, r.goodput_ops_per_sec,
          r.shed_fraction, r.admitted_p99_ms,
          static_cast<long long>(r.peak_active));
    }
  }

  std::printf(
      "\nNo admission control (10^4 users): the backlog absorbs the "
      "overload\nand admitted latency grows with it\n");
  std::printf("  %-9s %5s  %9s  %9s  %6s  %8s  %8s\n", "users", "load",
              "offered/s", "goodput/s", "shed%", "p99(ms)", "peak-act");
  for (const double f : kLoadFactors) {
    const RunResult r = run_one(10'000, f, /*admission_on=*/false);
    std::printf("  %-9d %4.1fx  %9.1f  %9.1f  %5.1f%%  %8.1f  %8lld\n",
                10'000, f, r.offered_ops_per_sec, r.goodput_ops_per_sec,
                100.0 * r.shed_fraction, r.admitted_p99_ms,
                static_cast<long long>(r.peak_active));
    std::printf(
        "{\"bench\":\"abl_scale\",\"admission\":false,\"users\":10000,"
        "\"load_factor\":%.1f,\"offered_ops_per_sec\":%.1f,"
        "\"goodput_ops_per_sec\":%.1f,\"shed_fraction\":%.3f,"
        "\"admitted_p99_ms\":%.1f,\"peak_active_sessions\":%lld}\n",
        f, r.offered_ops_per_sec, r.goodput_ops_per_sec, r.shed_fraction,
        r.admitted_p99_ms, static_cast<long long>(r.peak_active));
  }
  return 0;
}

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/platform.h"
#include "simnest/protocol_model.h"
#include "simnest/workload.h"

namespace nest::simnest {
namespace {

using sim::Co;
using sim::Engine;
using sim::PlatformProfile;

TEST(ProtocolModel, PresetsHaveExpectedShape) {
  EXPECT_FALSE(ProtocolBehavior::chirp().sync_per_block);
  EXPECT_FALSE(ProtocolBehavior::http().sync_per_block);
  EXPECT_TRUE(ProtocolBehavior::nfs().sync_per_block);
  EXPECT_EQ(ProtocolBehavior::nfs().block, 8 * 1024);
  EXPECT_TRUE(ProtocolBehavior::gridftp().per_block_ack);
  EXPECT_GT(ProtocolBehavior::gridftp().connect_rtts,
            ProtocolBehavior::http().connect_rtts);
  EXPECT_THROW(ProtocolBehavior::by_name("smtp"), std::invalid_argument);
}

TEST(SimNest, SingleCachedGetApproachesLinkBandwidth) {
  Engine eng;
  SimHost host(eng, PlatformProfile::linux2_2());
  SimNestConfig cfg;
  cfg.tm.adaptive = false;
  SimNest server(host, cfg);
  server.add_file("/f", 10'000'000, /*cached=*/true);
  Nanos done = 0;
  sim::spawn([](Engine& e, SimNest& s, Nanos& out) -> Co<void> {
    co_await s.client_get(ProtocolBehavior::chirp(), "/f");
    out = e.now();
  }(eng, server, done));
  eng.run();
  const double mbps = mb_per_sec(10'000'000, done);
  EXPECT_GT(mbps, 25.0);  // near the 36 MB/s link
  EXPECT_LE(mbps, 36.0);
}

TEST(SimNest, ColdGetIsDiskBound) {
  Engine eng;
  SimHost host(eng, PlatformProfile::linux2_2());
  SimNestConfig cfg;
  cfg.tm.adaptive = false;
  SimNest server(host, cfg);
  server.add_file("/cold", 10'000'000, /*cached=*/false);
  Nanos done = 0;
  sim::spawn([](Engine& e, SimNest& s, Nanos& out) -> Co<void> {
    co_await s.client_get(ProtocolBehavior::chirp(), "/cold");
    out = e.now();
  }(eng, server, done));
  eng.run();
  // Serial disk(20) + link(36): well under the cached case.
  EXPECT_LT(mb_per_sec(10'000'000, done), 16.0);
  EXPECT_GT(host.store().disk().total_bytes(), 9'000'000);
}

TEST(SimNest, NfsSlowerThanChirpForSameFile) {
  auto run_proto = [](ProtocolBehavior proto) {
    Engine eng;
    SimHost host(eng, PlatformProfile::linux2_2());
    SimNestConfig cfg;
    cfg.tm.adaptive = false;
    SimNest server(host, cfg);
    server.add_file("/f", 5'000'000, true);
    Nanos done = 0;
    sim::spawn([](Engine& e, SimNest& s, ProtocolBehavior p,
                  Nanos& out) -> Co<void> {
      co_await s.client_get(p, "/f");
      out = e.now();
    }(eng, server, proto, done));
    eng.run();
    return mb_per_sec(5'000'000, done);
  };
  const double chirp = run_proto(ProtocolBehavior::chirp());
  const double nfs = run_proto(ProtocolBehavior::nfs());
  const double gftp = run_proto(ProtocolBehavior::gridftp());
  EXPECT_GT(chirp, 1.6 * nfs);   // paper Fig 3: NFS at roughly half
  EXPECT_GT(chirp, 1.4 * gftp);  // and GridFTP too
}

// Bench percentiles cover every completion, not a recent window. One
// client issues 5,000 GETs in sequence: 60 cold 1 MB reads first (the
// slowest 1%, more than that so the p99 rank lands among them), then
// 4,940 cached 4 KiB reads. A recorder that kept only the latest 4,096
// samples would see no cold read at all.
TEST(SimNest, LatencyPercentileCoversEveryCompletion) {
  Engine eng;
  SimHost host(eng, PlatformProfile::linux2_2());
  SimNestConfig cfg;
  cfg.tm.adaptive = false;
  SimNest server(host, cfg);
  constexpr int kCold = 60;
  constexpr int kHot = 4'940;
  for (int i = 0; i < kCold; ++i) {
    server.add_file("/cold" + std::to_string(i), 1'000'000, /*cached=*/false);
  }
  server.add_file("/hot", 4096, /*cached=*/true);
  // With no connect round trips, a GET's client-side time is one
  // request round trip on the idle link plus the server-side latency.
  ProtocolBehavior proto = ProtocolBehavior::chirp();
  proto.connect_rtts = 0;
  Nanos rtt = 0;
  std::vector<Nanos> seen;
  sim::spawn([](Engine& e, SimNest& s, ProtocolBehavior p, Nanos& rtt_out,
                std::vector<Nanos>& out) -> Co<void> {
    Nanos t0 = e.now();
    co_await s.host().link().round_trip(256);
    rtt_out = e.now() - t0;
    for (int i = 0; i < kCold + kHot; ++i) {
      const std::string path =
          i < kCold ? "/cold" + std::to_string(i) : "/hot";
      t0 = e.now();
      co_await s.client_get(p, path);
      out.push_back(e.now() - t0 - rtt_out);
    }
  }(eng, server, proto, rtt, seen));
  eng.run();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kCold + kHot));
  ASSERT_GT(rtt, 0);

  std::sort(seen.begin(), seen.end());
  const auto rank = [&](double p) {
    return static_cast<double>(seen[static_cast<std::size_t>(
               p / 100.0 * static_cast<double>(seen.size() - 1))]) /
           1e6;
  };
  EXPECT_DOUBLE_EQ(server.latency_percentile_ms(99), rank(99));
  EXPECT_DOUBLE_EQ(server.latency_percentile_ms(50), rank(50));
  EXPECT_DOUBLE_EQ(server.latency_percentile_ms(0), rank(0));
  // The p99 is a cold read, far slower than the cached median.
  EXPECT_GT(server.latency_percentile_ms(99),
            10 * server.latency_percentile_ms(50));
}

TEST(SimNest, PutLandsInStore) {
  Engine eng;
  SimHost host(eng, PlatformProfile::linux2_2());
  SimNestConfig cfg;
  cfg.tm.adaptive = false;
  SimNest server(host, cfg);
  sim::spawn([](SimNest& s) -> Co<void> {
    co_await s.client_put(ProtocolBehavior::chirp(), "/out", 2'000'000);
  }(server));
  eng.run();
  EXPECT_EQ(server.file_size("/out"), 2'000'000);
  EXPECT_GT(server.tm().total_bytes(), 0);
}

TEST(SimNest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine eng;
    SimHost host(eng, PlatformProfile::linux2_2());
    SimNestConfig cfg;
    cfg.tm.adaptive = false;
    SimNest server(host, cfg);
    WorkloadSpec spec;
    spec.duration = 5 * kSecond;
    spec.groups.push_back(ClientGroup{&server, "chirp", 4, 10'000'000, true, 1});
    spec.groups.push_back(ClientGroup{&server, "nfs", 4, 10'000'000, true, 1});
    return run_get_workload(eng, spec);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.total_mbps, b.total_mbps);
  EXPECT_DOUBLE_EQ(a.class_mbps.at("nfs"), b.class_mbps.at("nfs"));
  EXPECT_EQ(a.completed_requests, b.completed_requests);
}

TEST(SimNest, StrideTicketsShiftBandwidth) {
  auto run_ratio = [](std::int64_t http_tickets) {
    Engine eng;
    SimHost host(eng, PlatformProfile::linux2_2());
    SimNestConfig cfg;
    cfg.tm.scheduler = "stride";
    cfg.tm.adaptive = false;
    // Fewer slots than clients, so the scheduler actually arbitrates.
    cfg.service_slots = 4;
    SimNest server(host, cfg);
    server.tm().stride()->set_tickets("http", http_tickets);
    server.tm().stride()->set_tickets("ftp", 1);
    WorkloadSpec spec;
    spec.duration = 20 * kSecond;
    spec.groups.push_back(ClientGroup{&server, "http", 4, 10'000'000, true, 1});
    spec.groups.push_back(ClientGroup{&server, "ftp", 4, 10'000'000, true, 1});
    const auto r = run_get_workload(eng, spec);
    return r.class_mbps.at("http") / r.class_mbps.at("ftp");
  };
  EXPECT_NEAR(run_ratio(1), 1.0, 0.15);
  EXPECT_NEAR(run_ratio(3), 3.0, 0.45);
}

TEST(SimNest, EventsModelSerializesColdReads) {
  auto run_model = [](transfer::ConcurrencyModel model) {
    Engine eng;
    SimHost host(eng, PlatformProfile::linux2_2());
    SimNestConfig cfg;
    cfg.tm.adaptive = false;
    cfg.tm.fixed_model = model;
    SimNest server(host, cfg);
    WorkloadSpec spec;
    spec.duration = 30 * kSecond;
    // Working set beyond cache: hits mixed with misses.
    spec.groups.push_back(ClientGroup{&server, "chirp", 4, 10'000'000, true, 12});
    return run_get_workload(eng, spec).total_mbps;
  };
  const double threads = run_model(transfer::ConcurrencyModel::threads);
  const double events = run_model(transfer::ConcurrencyModel::events);
  EXPECT_GT(threads, 1.5 * events);  // paper Fig 5, right panel
}

TEST(SimNest, EventsWinSmallCachedRequestsOnSolaris) {
  auto run_model = [](transfer::ConcurrencyModel model) {
    Engine eng;
    SimHost host(eng, PlatformProfile::solaris8());
    SimNestConfig cfg;
    cfg.tm.adaptive = false;
    cfg.tm.fixed_model = model;
    SimNest server(host, cfg);
    WorkloadSpec spec;
    spec.duration = 10 * kSecond;
    spec.groups.push_back(ClientGroup{&server, "chirp", 8, 1000, true, 1});
    return run_get_workload(eng, spec).class_latency_ms.at("chirp");
  };
  const double threads = run_model(transfer::ConcurrencyModel::threads);
  const double events = run_model(transfer::ConcurrencyModel::events);
  EXPECT_LT(events, threads);  // paper Fig 5, left panel
}

TEST(SimNest, StagedAvoidsBothWeaknesses) {
  // The SEDA-style extension: threads-level bulk bandwidth AND
  // events-level small-request latency.
  auto bulk = [](transfer::ConcurrencyModel model) {
    Engine eng;
    SimHost host(eng, PlatformProfile::linux2_2());
    SimNestConfig cfg;
    cfg.tm.adaptive = false;
    cfg.tm.fixed_model = model;
    SimNest server(host, cfg);
    WorkloadSpec spec;
    spec.duration = 30 * kSecond;
    spec.groups.push_back(ClientGroup{&server, "chirp", 4, 10'000'000, true, 12});
    return run_get_workload(eng, spec).total_mbps;
  };
  auto latency = [](transfer::ConcurrencyModel model) {
    Engine eng;
    SimHost host(eng, PlatformProfile::solaris8());
    SimNestConfig cfg;
    cfg.tm.adaptive = false;
    cfg.tm.fixed_model = model;
    SimNest server(host, cfg);
    WorkloadSpec spec;
    spec.duration = 10 * kSecond;
    spec.groups.push_back(ClientGroup{&server, "chirp", 8, 1000, true, 1});
    return run_get_workload(eng, spec).class_latency_ms.at("chirp");
  };
  const double staged_bw = bulk(transfer::ConcurrencyModel::staged);
  const double threads_bw = bulk(transfer::ConcurrencyModel::threads);
  EXPECT_GT(staged_bw, 0.9 * threads_bw);
  const double staged_lat = latency(transfer::ConcurrencyModel::staged);
  const double threads_lat = latency(transfer::ConcurrencyModel::threads);
  EXPECT_LT(staged_lat, 0.5 * threads_lat);
}

TEST(SimNest, AdaptiveTracksBestModel) {
  Engine eng;
  SimHost host(eng, PlatformProfile::linux2_2());
  SimNestConfig cfg;
  cfg.tm.adaptive = true;
  cfg.tm.adapt.metric = transfer::AdaptMetric::throughput;
  cfg.tm.adapt.enabled = {transfer::ConcurrencyModel::threads,
                          transfer::ConcurrencyModel::events};
  cfg.tm.adapt.warmup_per_model = 4;
  SimNest server(host, cfg);
  WorkloadSpec spec;
  spec.duration = 60 * kSecond;
  spec.groups.push_back(ClientGroup{&server, "chirp", 4, 10'000'000, true, 12});
  (void)run_get_workload(eng, spec);
  EXPECT_EQ(server.tm().selector().best(),
            transfer::ConcurrencyModel::threads);
}

TEST(Workload, WarmupExcludedFromWindow) {
  Engine eng;
  SimHost host(eng, PlatformProfile::linux2_2());
  SimNestConfig cfg;
  cfg.tm.adaptive = false;
  SimNest server(host, cfg);
  WorkloadSpec spec;
  spec.warmup = 5 * kSecond;
  spec.duration = 10 * kSecond;
  spec.groups.push_back(ClientGroup{&server, "chirp", 2, 10'000'000, true, 1});
  const auto r = run_get_workload(eng, spec);
  EXPECT_GT(r.total_mbps, 20.0);
  EXPECT_LT(r.total_mbps, 40.0);
}

}  // namespace
}  // namespace nest::simnest

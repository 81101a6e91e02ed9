// Observability tests (CTest label `obs`): histogram bucket math, the
// lock-free trace ring, span parenting, the Stats registry, and the
// end-to-end span tree of a traced Chirp request against a live server.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "client/chirp_client.h"
#include "client/http_client.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "server/nest_server.h"

namespace nest {
namespace {

// ---------- Histogram bucket math ----------

TEST(Histogram, BucketBoundaries) {
  // Bucket 0: everything below 1024 ns, including non-positive samples.
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(-5), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 0);
  EXPECT_EQ(Histogram::bucket_of(1023), 0);
  // Bucket b >= 1: [1024 << (b-1), 1024 << b).
  EXPECT_EQ(Histogram::bucket_of(1024), 1);
  EXPECT_EQ(Histogram::bucket_of(2047), 1);
  EXPECT_EQ(Histogram::bucket_of(2048), 2);
  EXPECT_EQ(Histogram::bucket_of(4095), 2);
  EXPECT_EQ(Histogram::bucket_of(4096), 3);
  // 1 ms = 1e6 ns lands in [524288, 1048576) = bucket 10.
  EXPECT_EQ(Histogram::bucket_of(1'000'000), 10);
  // The tail bucket absorbs everything huge.
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<Nanos>::max()),
            Histogram::kBuckets - 1);
}

TEST(Histogram, FloorAndCeilingAgreeWithBucketOf) {
  for (int b = 0; b < Histogram::kBuckets - 1; ++b) {
    const Nanos floor = Histogram::bucket_floor(b);
    const Nanos ceiling = Histogram::bucket_ceiling(b);
    ASSERT_LT(floor, ceiling) << "bucket " << b;
    EXPECT_EQ(Histogram::bucket_of(floor), b) << "bucket " << b;
    EXPECT_EQ(Histogram::bucket_of(ceiling - 1), b) << "bucket " << b;
    EXPECT_EQ(Histogram::bucket_of(ceiling), b + 1) << "bucket " << b;
  }
  EXPECT_EQ(Histogram::bucket_floor(0), 0);
  EXPECT_EQ(Histogram::bucket_ceiling(0), Histogram::kBucket0Ceiling);
}

TEST(Histogram, RecordAndSnapshot) {
  Histogram h;
  h.record(500);        // bucket 0
  h.record(1500);       // bucket 1
  h.record(1500);       // bucket 1
  h.record(3000);       // bucket 2
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 4);
  EXPECT_EQ(s.buckets[0], 1);
  EXPECT_EQ(s.buckets[1], 2);
  EXPECT_EQ(s.buckets[2], 1);
  EXPECT_EQ(s.sum, 6500);
  EXPECT_NEAR(s.mean_ms(), 6500.0 / 4 / 1e6, 1e-12);
}

TEST(Histogram, PercentileReturnsBucketCeiling) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(500);          // bucket 0
  for (int i = 0; i < 10; ++i) h.record(2'000'000);    // ~2 ms
  // p50 falls in bucket 0: ceiling 1024 ns.
  EXPECT_NEAR(h.percentile_ms(50), 1024 / 1e6, 1e-12);
  // p99 falls in the 2 ms sample's bucket; its ceiling bounds the sample.
  const double p99 = h.percentile_ms(99);
  EXPECT_GE(p99, 2.0);
  EXPECT_LE(p99, 4.2);  // bucket [2097152, 4194304) ns
  // Empty histogram reports 0.
  Histogram empty;
  EXPECT_EQ(empty.percentile_ms(99), 0.0);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(1'000'000);
  ASSERT_EQ(h.count(), 1);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.snapshot().count, 0);
}

// ---------- RollingRate / LoadAverage ----------

TEST(RollingRate, TrailingWindowRate) {
  obs::RollingRate rate(10 * kSecond);
  EXPECT_EQ(rate.observe(0, 0), 0.0);
  // 1000 bytes over 1 second.
  EXPECT_NEAR(rate.observe(1 * kSecond, 1000), 1000.0, 1e-9);
  // Steady state: another 1000 in the next second.
  EXPECT_NEAR(rate.observe(2 * kSecond, 2000), 1000.0, 1e-9);
  // After the window slides past the early samples, only recent deltas
  // count: no new bytes for 20 s -> rate decays toward 0.
  const double idle = rate.observe(22 * kSecond, 2000);
  EXPECT_LT(idle, 150.0);
}

TEST(LoadAverage, EwmaConverges) {
  obs::LoadAverage load(10 * kSecond);
  EXPECT_NEAR(load.observe(0, 4.0), 4.0, 1e-12);  // primes at first sample
  // Holding the instantaneous value constant converges to it.
  double v = 0;
  for (int i = 1; i <= 100; ++i) v = load.observe(i * kSecond, 1.0);
  EXPECT_NEAR(v, 1.0, 1e-3);
  EXPECT_NEAR(load.value(), v, 1e-12);
}

// ---------- Trace ring buffer ----------

obs::SpanData make_span(std::uint64_t trace, std::uint64_t id, Nanos start) {
  obs::SpanData s;
  s.trace_id = trace;
  s.span_id = id;
  s.start = start;
  s.end = start + 10;
  s.name = "x";
  s.layer = obs::Layer::transfer;
  return s;
}

TEST(TraceBuffer, RecordAndSnapshot) {
  obs::TraceBuffer buf(16);
  buf.record(make_span(7, 1, 100));
  buf.record(make_span(7, 2, 200));
  buf.record(make_span(8, 3, 300));
  auto all = buf.snapshot();
  EXPECT_EQ(all.size(), 3u);
  auto t7 = buf.trace(7);
  ASSERT_EQ(t7.size(), 2u);
  EXPECT_EQ(t7[0].span_id, 1u);  // sorted by start
  EXPECT_EQ(t7[1].span_id, 2u);
}

TEST(TraceBuffer, RingWraparoundKeepsLatest) {
  obs::TraceBuffer buf(8);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    buf.record(make_span(1, i, static_cast<Nanos>(i)));
  }
  auto all = buf.snapshot();
  ASSERT_EQ(all.size(), 8u);  // capacity bounds retention
  std::set<std::uint64_t> ids;
  for (const auto& s : all) ids.insert(s.span_id);
  // The latest 8 spans (13..20) survive; older ones were overwritten.
  for (std::uint64_t i = 13; i <= 20; ++i) {
    EXPECT_TRUE(ids.count(i)) << "span " << i;
  }
}

TEST(TraceBuffer, FindTraceMatchesLatestStart) {
  ManualClock clock;
  obs::TraceBuffer buf(16);
  buf.set_clock(&clock);
  {
    obs::Span a(obs::Layer::protocol, "get", buf);
    clock.advance(kMillisecond);
  }
  std::uint64_t second_trace = 0;
  {
    clock.advance(kMillisecond);
    obs::Span b(obs::Layer::protocol, "get", buf);
    second_trace = b.trace_id();
    clock.advance(kMillisecond);
  }
  EXPECT_EQ(buf.find_trace(obs::Layer::protocol, "get"), second_trace);
  EXPECT_EQ(buf.find_trace(obs::Layer::protocol, "nope"), 0u);
  buf.set_clock(nullptr);
}

TEST(TraceBuffer, SpanParentingFollowsCallStack) {
  ManualClock clock;
  obs::TraceBuffer buf(64);
  buf.set_clock(&clock);
  std::uint64_t root_trace = 0, root_id = 0, child_id = 0;
  {
    obs::Span root(obs::Layer::protocol, "get", buf);
    root_trace = root.trace_id();
    root_id = root.span_id();
    clock.advance(kMillisecond);
    {
      obs::Span child(obs::Layer::dispatcher, "approve_get", buf);
      child_id = child.span_id();
      EXPECT_EQ(child.trace_id(), root_trace);
      clock.advance(kMillisecond);
      {
        obs::Span grand(obs::Layer::storage, "approve_read", buf);
        EXPECT_EQ(grand.trace_id(), root_trace);
        clock.advance(kMillisecond);
      }
    }
    // Context restored: a sibling parents to the root again.
    obs::Span sib(obs::Layer::transfer, "transfer", buf);
    EXPECT_EQ(sib.trace_id(), root_trace);
  }
  // After the root closes, the thread has no active context.
  EXPECT_FALSE(obs::current_context().active());

  auto spans = buf.trace(root_trace);
  ASSERT_EQ(spans.size(), 4u);
  std::map<std::uint64_t, obs::SpanData> by_id;
  for (const auto& s : spans) by_id[s.span_id] = s;
  EXPECT_EQ(by_id[root_id].parent_id, 0u);
  EXPECT_EQ(by_id[child_id].parent_id, root_id);
  // Start/end nesting: child inside root.
  EXPECT_GE(by_id[child_id].start, by_id[root_id].start);
  EXPECT_LE(by_id[child_id].end, by_id[root_id].end);
  // JSON and tree rendering cover every span.
  const std::string json = obs::TraceBuffer::to_json(spans);
  EXPECT_NE(json.find("\"approve_read\""), std::string::npos);
  const std::string tree = obs::TraceBuffer::render_tree(spans);
  EXPECT_NE(tree.find("dispatcher:approve_get"), std::string::npos);
  buf.set_clock(nullptr);
}

TEST(TraceBuffer, RingsAreReusedAcrossThreads) {
  obs::TraceBuffer buf(8);
  // Threads run strictly one after another, so each can reuse the
  // previous thread's returned ring; the ring count must not grow
  // linearly with thread count.
  for (int i = 0; i < 16; ++i) {
    std::thread t([&] { buf.record(make_span(1, 1, 1)); });
    t.join();
  }
  EXPECT_LE(buf.ring_count(), 2u);
}

// Concurrent recorders + snapshotters; correctness is "no torn reads and
// every surviving span is well-formed". Run under TSan via the `obs`
// label for the data-race half of the guarantee.
TEST(TraceBuffer, ConcurrentRecordSnapshotStress) {
  obs::TraceBuffer buf(64);
  std::atomic<bool> stop{false};
  const int kWriters = 4;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 1; i <= 2000; ++i) {
        obs::SpanData s = make_span(static_cast<std::uint64_t>(w) + 1, i,
                                    static_cast<Nanos>(i));
        s.end = s.start + 7;
        buf.record(s);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& s : buf.snapshot()) {
        ASSERT_GE(s.trace_id, 1u);
        ASSERT_LE(s.trace_id, static_cast<std::uint64_t>(kWriters));
        ASSERT_EQ(s.end, s.start + 7);
      }
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_LE(buf.snapshot().size(), static_cast<std::size_t>(kWriters) * 64);
}

// ---------- Stats registry ----------

TEST(Stats, PerProtocolFallsBackToOther) {
  obs::Stats stats;
  stats.request_latency("chirp").record(kMillisecond);
  stats.request_latency("martian").record(kMillisecond);
  EXPECT_EQ(stats.per_protocol().at("chirp").count(), 1);
  EXPECT_EQ(stats.per_protocol().at("other").count(), 1);
}

TEST(Stats, ToJsonCarriesCountersAndHistograms) {
  obs::Stats stats;
  stats.requests.store(3);
  stats.errors.store(1);
  stats.bytes_queued.store(4096);
  stats.request_all.record(2 * kMillisecond);
  stats.journal_fsync_wait.record(5 * kMillisecond);
  const std::string j = stats.to_json();
  EXPECT_NE(j.find("\"requests\":3"), std::string::npos);
  EXPECT_NE(j.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(j.find("\"bytes_queued\":4096"), std::string::npos);
  EXPECT_NE(j.find("\"request_latency\":{\"count\":1"), std::string::npos);
  EXPECT_NE(j.find("\"journal_fsync_wait\":{\"count\":1"), std::string::npos);
  EXPECT_NE(j.find("\"request_latency_by_protocol\""), std::string::npos);
  stats.reset();
  EXPECT_EQ(stats.request_all.count(), 0);
  EXPECT_EQ(stats.requests.load(), 0);
}

// ---------- End-to-end: traced requests against a live server ----------

class ObsServerTest : public ::testing::Test {
 protected:
  static std::unique_ptr<server::NestServer> start_server() {
    server::NestServerOptions o;
    o.capacity = 50'000'000;
    o.ftp_port = -1;
    o.gridftp_port = -1;
    o.nfs_port = -1;
    auto s = server::NestServer::start(std::move(o));
    EXPECT_TRUE(s.ok());
    (*s)->gsi().add_user("alice", "s");
    return std::move(*s);
  }
};

TEST_F(ObsServerTest, ChirpGetProducesFullSpanTree) {
  auto srv = start_server();
  ASSERT_TRUE(srv);
  auto c = client::ChirpClient::connect("127.0.0.1", srv->chirp_port(),
                                        "alice", "s");
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->put("/traced", std::string(100'000, 't')).ok());
  auto got = c->get("/traced");
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 100'000u);

  // The handler's root span records at scope exit, which happens a beat
  // after the client has consumed the body — poll (bounded) for it.
  auto& buf = obs::TraceBuffer::instance();
  std::uint64_t trace = 0;
  for (int i = 0; i < 400 && trace == 0; ++i) {
    trace = buf.find_trace(obs::Layer::protocol, "get");
    if (trace == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(trace, 0u);
  const auto spans = buf.trace(trace);
  ASSERT_GE(spans.size(), 4u);

  std::map<std::uint64_t, obs::SpanData> by_id;
  for (const auto& s : spans) by_id[s.span_id] = s;
  auto find_named = [&](obs::Layer layer,
                        const std::string& name) -> const obs::SpanData* {
    for (const auto& s : spans) {
      if (s.layer == layer && name == s.name) return &by_id[s.span_id];
    }
    return nullptr;
  };

  // protocol:get is the root.
  const auto* root = find_named(obs::Layer::protocol, "get");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  // dispatcher:approve_get is a direct child of the protocol span.
  const auto* approve = find_named(obs::Layer::dispatcher, "approve_get");
  ASSERT_NE(approve, nullptr);
  EXPECT_EQ(approve->parent_id, root->span_id);
  // storage:approve_read nests under the dispatcher approval.
  const auto* storage = find_named(obs::Layer::storage, "approve_read");
  ASSERT_NE(storage, nullptr);
  EXPECT_EQ(storage->parent_id, approve->span_id);
  // The transfer span covers the data movement, under the protocol root,
  // with at least one block quantum below it.
  const auto* transfer = find_named(obs::Layer::transfer, "transfer");
  ASSERT_NE(transfer, nullptr);
  EXPECT_EQ(transfer->parent_id, root->span_id);
  EXPECT_EQ(transfer->value, 100'000);
  const auto* quantum = find_named(obs::Layer::transfer, "quantum");
  ASSERT_NE(quantum, nullptr);
  EXPECT_EQ(quantum->parent_id, transfer->span_id);

  // Every span is timestamped and closed.
  for (const auto& s : spans) {
    EXPECT_GT(s.start, 0) << s.name;
    EXPECT_GE(s.end, s.start) << s.name;
  }
  // And the tree renders with the expected nesting.
  const std::string tree = obs::TraceBuffer::render_tree(spans);
  EXPECT_NE(tree.find("protocol:get"), std::string::npos);
  EXPECT_NE(tree.find("transfer:quantum"), std::string::npos);
}

TEST_F(ObsServerTest, StatsSurfacesAgree) {
  auto srv = start_server();
  ASSERT_TRUE(srv);
  auto c = client::ChirpClient::connect("127.0.0.1", srv->chirp_port(),
                                        "alice", "s");
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->put("/s", "stats-body").ok());
  ASSERT_TRUE(c->get("/s").ok());

  // Chirp STATS op.
  auto via_chirp = c->stats();
  ASSERT_TRUE(via_chirp.ok()) << via_chirp.error().to_string();
  EXPECT_NE(via_chirp->find("\"transfers\""), std::string::npos);
  EXPECT_NE(via_chirp->find("\"request_latency\""), std::string::npos);
  EXPECT_NE(via_chirp->find("\"load\""), std::string::npos);

  // GET /stats on the HTTP endpoint returns the same document shape.
  client::HttpClient http("127.0.0.1", srv->http_port());
  auto via_http = http.get("/stats");
  ASSERT_TRUE(via_http.ok());
  EXPECT_EQ(via_http->status, 200);
  EXPECT_NE(via_http->body.find("\"transfers\""), std::string::npos);
  EXPECT_NE(via_http->body.find("\"metrics\""), std::string::npos);

  // GET /trace exposes the span dump.
  auto via_trace = http.get("/trace");
  ASSERT_TRUE(via_trace.ok());
  EXPECT_EQ(via_trace->status, 200);
  EXPECT_NE(via_trace->body.find("\"spans\""), std::string::npos);

  // The discovery ClassAd carries the rolled-up load numbers.
  const auto ad = srv->dispatcher().snapshot_ad();
  EXPECT_TRUE(ad.eval_real("LoadAvg").has_value());
  EXPECT_TRUE(ad.eval_real("ThroughputMBps").has_value());
  EXPECT_TRUE(ad.eval_int("BytesQueued").has_value());
  EXPECT_TRUE(ad.eval_int("Requests").has_value());
  EXPECT_GT(ad.eval_int("Requests").value_or(0), 0);
  // The mean of the transfer_latency histogram, which holds the PUT and
  // GET above.
  EXPECT_GT(ad.eval_real("MeanTransferMs").value_or(0), 0.0);
}

}  // namespace
}  // namespace nest

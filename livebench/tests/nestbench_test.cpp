// Self-tests for the benchmark's own arithmetic and op streams. The smoke
// run against a real nestd lives in run.py (`python3 livebench/run.py
// --smoke`), because it needs both built binaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "metrics.h"
#include "opstream.h"
#include "proc.h"

namespace livebench {
namespace {

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Percentile, NearestRankIsCeiling) {
  EXPECT_EQ(nearest_rank(1000, 99), 990u);
  EXPECT_EQ(nearest_rank(1001, 99), 991u);
  EXPECT_EQ(nearest_rank(100, 50), 50u);
  EXPECT_EQ(nearest_rank(101, 50), 51u);
  EXPECT_EQ(nearest_rank(1, 99), 1u);
  EXPECT_EQ(nearest_rank(0, 50), 0u);
}

TEST(Percentile, P99NeedsTenSamplesBeyond) {
  const auto ok = iota_samples(1000);
  const auto p99 = percentile(ok, 99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->value, 990);
  EXPECT_EQ(p99->beyond, 10u);
  EXPECT_EQ(p99->samples, 1000u);

  const auto short_sample = iota_samples(999);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_FALSE(percentile(short_sample, 99).has_value());
}

TEST(Percentile, EveryReportedTailLeavesTenBeyond) {
  for (std::size_t n = 1; n <= 5000; n += 7) {
    const auto v = iota_samples(n);
    for (const double pct : {50.0, 90.0, 99.0, 99.9}) {
      const auto got = percentile(v, pct);
      if (got) {
        EXPECT_GE(got->beyond, kMinTail) << "n=" << n << " p=" << pct;
        EXPECT_EQ(static_cast<std::size_t>(got->value) + got->beyond, n);
      } else {
        EXPECT_LT(samples_beyond(n, pct), kMinTail) << "n=" << n;
      }
    }
  }
}

TEST(Percentile, OrZeroOnEmpty) {
  const std::vector<double> none;
  EXPECT_EQ(percentile_or_zero(none, 50), 0);
  const std::vector<double> one{7};
  EXPECT_EQ(percentile_or_zero(one, 99), 7);
}

TEST(Arithmetic, MedianOddEvenEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(Arithmetic, SelfTimeIsSignedDifference) {
  EXPECT_DOUBLE_EQ(self_time(12.5, 10.0), 2.5);
  EXPECT_DOUBLE_EQ(self_time(10.0, 12.5), -2.5);
}

TEST(Arithmetic, RatioGuardsEmptyBase) {
  EXPECT_DOUBLE_EQ(ratio(6, 3), 2);
  EXPECT_DOUBLE_EQ(ratio(6, 0), 0);
}

TEST(Arithmetic, OverheadPct) {
  EXPECT_NEAR(overhead_pct(100, 90), 10, 1e-9);
  EXPECT_NEAR(overhead_pct(100, 110), -10, 1e-9);
  EXPECT_EQ(overhead_pct(0, 5), 0);
}

TEST(Arithmetic, WeightedSelfUsesTheOuterMix) {
  std::map<int, MeanAcc> outer, inner, weights;
  outer[1] = {30, 3};  // mean 10
  inner[1] = {12, 3};  // mean 4
  outer[2] = {50, 1};  // mean 50
  inner[2] = {20, 2};  // mean 10
  outer[3] = {9, 1};   // no inner sample: skipped
  weights[1] = {0, 3};
  weights[2] = {0, 1};
  weights[3] = {0, 5};
  // (3 * (10 - 4) + 1 * (50 - 10)) / 4
  EXPECT_DOUBLE_EQ(weighted_self(outer, inner, weights), 14.5);
  EXPECT_EQ(weighted_self({}, {}, {}), 0);
}

TEST(StatsJson, NumbersAndBucketDeltas) {
  const std::string before =
      R"({"journal":{"appends":10,"commits":4,"fsyncs":4},)"
      R"("metrics":{"journal_fsync_wait":{"count":3,"p50_ms":0,)"
      R"("buckets":[[0,1],[8,2]]},"sched_hold":{"count":0,"buckets":[]}}})";
  const std::string after =
      R"({"journal":{"appends":50,"commits":24,"fsyncs":24},)"
      R"("metrics":{"journal_fsync_wait":{"count":23,"p50_ms":0,)"
      R"("buckets":[[0,1],[8,12],[16,9],[1024,1]]},)"
      R"("sched_hold":{"count":0,"buckets":[]}}})";
  EXPECT_EQ(stats_number(after, "journal", "appends") -
                stats_number(before, "journal", "appends"),
            40);
  EXPECT_EQ(stats_number(after, "journal", "missing"), 0);
  const auto a = stats_buckets(after, "journal_fsync_wait");
  const auto b = stats_buckets(before, "journal_fsync_wait");
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.at(16), 9);
  // Deltas: 10 at 8us, 9 at 16us, 1 at 1024us (20 samples).
  EXPECT_EQ(bucket_percentile(a, b, 50), 8);
  EXPECT_EQ(bucket_percentile(a, b, 90), 16);
  EXPECT_EQ(bucket_percentile(a, b, 99), 1024);
  EXPECT_EQ(bucket_percentile(stats_buckets(after, "sched_hold"), {}, 99), 0);
}

TEST(Content, SeededAndStreamingHashAgree) {
  const std::string a = seeded_content(7, 3, 10'000);
  EXPECT_EQ(a, seeded_content(7, 3, 10'000));
  EXPECT_NE(a, seeded_content(8, 3, 10'000));
  EXPECT_NE(a, seeded_content(7, 4, 10'000));
  const std::uint64_t whole = hash_bytes(a);
  for (const std::size_t step : {1u, 3u, 7u, 8u, 123u, 4096u}) {
    Hasher h;
    for (std::size_t off = 0; off < a.size(); off += step) {
      h.update(std::span<const char>(a.data() + off,
                                     std::min(step, a.size() - off)));
    }
    EXPECT_EQ(h.digest(), whole) << "step " << step;
  }
  std::string b = a;
  b[5000] ^= 1;
  EXPECT_NE(hash_bytes(b), whole);
  EXPECT_NE(hash_bytes(std::span<const char>(a.data(), a.size() - 1)), whole);
}

std::vector<Op> take(Workload w, std::uint64_t seed, int session, int n) {
  OpStream s(w, seed, session);
  std::vector<Op> out;
  for (int i = 0; i < n; ++i) out.push_back(s.next());
  return out;
}

bool same(const std::vector<Op>& a, const std::vector<Op>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].file != b[i].file ||
        a[i].verify != b[i].verify) {
      return false;
    }
  }
  return true;
}

TEST(OpStream, SameSeedSameStream) {
  for (const Workload w : {Workload::small_read, Workload::meta_session,
                           Workload::bulk_fig3, Workload::conn_churn}) {
    for (int s = 0; s < kSessions; ++s) {
      EXPECT_TRUE(same(take(w, 42, s, 2000), take(w, 42, s, 2000)))
          << workload_name(w) << " session " << s;
    }
  }
}

TEST(OpStream, SeedAndSessionChangeTheStream) {
  EXPECT_FALSE(same(take(Workload::small_read, 1, 0, 500),
                    take(Workload::small_read, 2, 0, 500)));
  EXPECT_FALSE(same(take(Workload::small_read, 1, 0, 500),
                    take(Workload::small_read, 1, 1, 500)));
}

TEST(OpStream, ShapesMatchTheWorkloads) {
  const auto small = take(Workload::small_read, 3, 0, 20'000);
  int stats = 0;
  for (const Op& op : small) {
    EXPECT_LT(op.file, kSmallFiles);
    EXPECT_TRUE(op.verify);
    stats += op.kind == OpKind::stat ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(stats) / 20'000, kStatShare, 0.01);

  const auto meta = take(Workload::meta_session, 3, 2, 12);
  const OpKind loop[] = {OpKind::lot_create, OpKind::put,    OpKind::stat,
                         OpKind::get,        OpKind::unlink, OpKind::lot_terminate};
  for (std::size_t i = 0; i < meta.size(); ++i) {
    EXPECT_EQ(meta[i].kind, loop[i % 6]);
    EXPECT_EQ(meta[i].file, i / 6);
  }

  const auto gridftp = take(Workload::bulk_fig3, 3, 3, 8);
  for (std::size_t i = 0; i < gridftp.size(); ++i) {
    EXPECT_EQ(gridftp[i].kind, i % 2 == 0 ? OpKind::stor : OpKind::read);
    EXPECT_EQ(gridftp[i].file, (i / 2) % kStorPayloads);
  }
}

TEST(Proc, ParsesTheListeningLine) {
  Ports ports;
  ASSERT_TRUE(parse_listening_line(
      "nestd 'nest' listening: chirp=1 http=2 ftp=3 gridftp=4 nfs(udp)=5",
      &ports));
  EXPECT_EQ(ports.chirp, 1);
  EXPECT_EQ(ports.http, 2);
  EXPECT_EQ(ports.gridftp, 4);
  EXPECT_EQ(ports.nfs, 5);
  EXPECT_FALSE(parse_listening_line("nestd: shutting down", &ports));
}

}  // namespace
}  // namespace livebench

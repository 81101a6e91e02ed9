// Measurement helpers shared by the benchmark harnesses and the
// observability registry: a wait-free latency histogram, and Jain's
// fairness index exactly as defined in the paper (footnote 2 of Section
// 7.2).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/clock.h"

namespace nest {

// Jain's fairness index over per-component ratios X_i = delivered/desired.
// 1.0 is a perfectly proportional allocation.
double jain_fairness(const std::vector<double>& ratios);

// Fixed-size log2-bucketed latency histogram. It never allocates after
// construction and both record() and snapshot() are wait-free (plain
// atomic counters), so it is safe on the block-transfer hot path and
// inside signal-adjacent code.
//
// Bucket 0 holds everything below 1 µs (and non-positive samples); bucket
// b >= 1 holds [1024 << (b-1), 1024 << b) ns, i.e. buckets double from
// 1 µs up. The last bucket absorbs the tail.
//
// snapshot() derives the total count from the bucket sum it read, so the
// returned object is internally consistent even while writers race; the
// sum (and thus the mean) may trail by in-flight records.
class Histogram {
 public:
  static constexpr int kBuckets = 48;
  static constexpr Nanos kBucket0Ceiling = 1024;  // ~1 µs

  struct Snapshot {
    std::array<std::int64_t, kBuckets> buckets{};
    std::int64_t count = 0;
    std::int64_t sum = 0;  // nanoseconds
    double mean_ms() const;
    // Upper bound (ms) of the bucket containing the p-th percentile
    // sample, p in [0,100]; 0 when empty.
    double percentile_ms(double p) const;
  };

  void record(Nanos v);
  Snapshot snapshot() const;
  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double mean_ms() const { return snapshot().mean_ms(); }
  double percentile_ms(double p) const { return snapshot().percentile_ms(p); }
  // Test hook: not linearizable against concurrent writers.
  void reset();

  // Bucket index a sample lands in, and the [floor, ceiling) range of a
  // bucket in nanoseconds (exposed for bucket-math tests and JSON export).
  static int bucket_of(Nanos v);
  static Nanos bucket_floor(int b);
  static Nanos bucket_ceiling(int b);

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

}  // namespace nest

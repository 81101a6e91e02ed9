#include "common/metrics.h"

#include <bit>
#include <limits>

namespace nest {

double jain_fairness(const std::vector<double>& ratios) {
  if (ratios.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : ratios) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  const double n = static_cast<double>(ratios.size());
  return (sum * sum) / (n * sum_sq);
}

int Histogram::bucket_of(Nanos v) {
  if (v < kBucket0Ceiling) return 0;
  const int b = std::bit_width(static_cast<std::uint64_t>(v) / kBucket0Ceiling);
  return b < kBuckets ? b : kBuckets - 1;
}

Nanos Histogram::bucket_floor(int b) {
  if (b <= 0) return 0;
  return kBucket0Ceiling << (b - 1);
}

Nanos Histogram::bucket_ceiling(int b) {
  if (b >= kBuckets - 1) return std::numeric_limits<Nanos>::max();
  return kBucket0Ceiling << b;
}

void Histogram::record(Nanos v) {
  buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v > 0 ? v : 0, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  for (int b = 0; b < kBuckets; ++b) {
    const std::int64_t n =
        buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
    out.buckets[static_cast<std::size_t>(b)] = n;
    out.count += n;
  }
  out.sum = sum_.load(std::memory_order_relaxed);
  return out;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

double Histogram::Snapshot::mean_ms() const {
  if (count == 0) return 0.0;
  return static_cast<double>(sum) / static_cast<double>(count) / 1e6;
}

double Histogram::Snapshot::percentile_ms(double p) const {
  if (count == 0) return 0.0;
  const auto rank = static_cast<std::int64_t>(
      p / 100.0 * static_cast<double>(count - 1));
  std::int64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    cum += buckets[static_cast<std::size_t>(b)];
    if (cum > rank) {
      const Nanos ceil = Histogram::bucket_ceiling(b);
      // The open-ended last bucket reports its floor instead of +inf.
      const Nanos rep =
          ceil == std::numeric_limits<Nanos>::max()
              ? Histogram::bucket_floor(b)
              : ceil;
      return static_cast<double>(rep) / 1e6;
    }
  }
  return 0.0;
}

}  // namespace nest

// Arithmetic the benchmark reports with: tail-safe percentiles, self time
// across layers, guarded ratios, content hashing and seeded content.
// Everything here is a pure function so the self-tests can pin it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace livebench {

// The choosing rule for a reported tail: a percentile is printed only when
// at least this many samples lie beyond it.
inline constexpr std::size_t kMinTail = 10;

// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples:
// ceil(p/100 * n), clamped to [1, n].
std::size_t nearest_rank(std::size_t n, double p);

// Samples strictly beyond the nearest rank of `p`.
std::size_t samples_beyond(std::size_t n, double p);

struct Percentile {
  double value = 0;
  std::size_t samples = 0;  // n
  std::size_t beyond = 0;   // samples above the reported rank
};

// Nearest-rank percentile of `sorted` (ascending). nullopt when the sample
// is empty or leaves fewer than `min_tail` samples beyond the rank.
std::optional<Percentile> percentile(std::span<const double> sorted, double p,
                                     std::size_t min_tail = kMinTail);

// Same, for metrics that carry no tail guard (a p50 of a handful of
// connects): 0 for an empty sample.
double percentile_or_zero(std::span<const double> sorted, double p);

// Median of an unsorted sample (sorts a copy); 0 when empty.
double median(std::vector<double> values);

double mean(std::span<const double> values);

// Self time of a layer: time at its entry point minus the time at the next
// entry point down, for the same operations. Signed on purpose: a negative
// value means the two passes' noise exceeds the layer's own cost.
double self_time(double outer, double inner);

// num / den, 0 when the base is empty.
double ratio(double num, double den);

// 100 * (1 - traced / untraced): throughput lost to tracing.
double overhead_pct(double untraced_rate, double traced_rate);

// Sum and count of a duration, per key.
struct MeanAcc {
  double sum = 0;
  std::int64_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double mean() const { return n == 0 ? 0 : sum / static_cast<double>(n); }
};

// Self time over an op mix: sum over op classes of
// weight * (outer mean - inner mean), weights from the classes' counts in
// `weights`, divided by the total weight. Classes missing on either side
// are skipped. Means, not medians, because only means subtract.
double weighted_self(const std::map<int, MeanAcc>& outer,
                     const std::map<int, MeanAcc>& inner,
                     const std::map<int, MeanAcc>& weights);

// --- /stats extraction: nestd's JSON, read by key ---
// A number inside a top-level object, e.g. ("journal", "fsyncs"); 0 when
// absent.
double stats_number(const std::string& json, const std::string& object,
                    const std::string& key);
// One histogram's log2 buckets as floor_us -> count.
std::map<double, std::int64_t> stats_buckets(const std::string& json,
                                             const std::string& name);
// Nearest-rank percentile of the samples added between two bucket
// snapshots, reported as the floor of the bucket that holds it.
double bucket_percentile(const std::map<double, std::int64_t>& after,
                         const std::map<double, std::int64_t>& before,
                         double p);

// Streaming 64-bit content hash, eight bytes per step (reads are checked
// at wire speed, so a byte-at-a-time hash would load the client). The
// digest is independent of how the content is split across updates.
class Hasher {
 public:
  void update(std::span<const char> bytes);
  std::uint64_t digest() const;

 private:
  void mix(std::uint64_t word) {
    h_ = (h_ ^ word) * 0x9e3779b97f4a7c15ull;
    h_ ^= h_ >> 29;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
  std::uint64_t length_ = 0;
  char pending_[8] = {};
  std::size_t pending_len_ = 0;
};

std::uint64_t hash_bytes(std::span<const char> bytes);

// splitmix64 step; the seed mixer behind every stream and payload.
std::uint64_t mix64(std::uint64_t x);

// Deterministic file content: `size` bytes that are a pure function of
// (seed, file_id).
std::string seeded_content(std::uint64_t seed, std::uint64_t file_id,
                           std::size_t size);

}  // namespace livebench

#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace livebench {

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double raw = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  const auto rank = static_cast<std::size_t>(std::max(1.0, raw));
  return std::min(rank, n);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

std::optional<Percentile> percentile(std::span<const double> sorted, double p,
                                     std::size_t min_tail) {
  if (sorted.empty()) return std::nullopt;
  const std::size_t beyond = samples_beyond(sorted.size(), p);
  if (beyond < min_tail) return std::nullopt;
  const std::size_t rank = nearest_rank(sorted.size(), p);
  return Percentile{sorted[rank - 1], sorted.size(), beyond};
}

double percentile_or_zero(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double self_time(double outer, double inner) { return outer - inner; }

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double overhead_pct(double untraced_rate, double traced_rate) {
  if (untraced_rate <= 0) return 0;
  return 100.0 * (1.0 - traced_rate / untraced_rate);
}

double weighted_self(const std::map<int, MeanAcc>& outer,
                     const std::map<int, MeanAcc>& inner,
                     const std::map<int, MeanAcc>& weights) {
  double total_w = 0, acc = 0;
  for (const auto& [key, w] : weights) {
    const auto o = outer.find(key);
    const auto i = inner.find(key);
    if (w.n == 0 || o == outer.end() || i == inner.end() || o->second.n == 0 ||
        i->second.n == 0) {
      continue;
    }
    acc += static_cast<double>(w.n) * self_time(o->second.mean(), i->second.mean());
    total_w += static_cast<double>(w.n);
  }
  return ratio(acc, total_w);
}

double stats_number(const std::string& json, const std::string& object,
                    const std::string& key) {
  const auto at = json.find("\"" + object + "\":{");
  if (at == std::string::npos) return 0;
  const auto k = json.find("\"" + key + "\":", at);
  if (k == std::string::npos) return 0;
  return std::strtod(json.c_str() + k + key.size() + 3, nullptr);
}

std::map<double, std::int64_t> stats_buckets(const std::string& json,
                                             const std::string& name) {
  std::map<double, std::int64_t> out;
  const auto at = json.find("\"" + name + "\":{");
  if (at == std::string::npos) return out;
  auto b = json.find("\"buckets\":[", at);
  if (b == std::string::npos) return out;
  b += 11;
  while (b < json.size() && json[b] == '[') {
    char* end = nullptr;
    const double floor_us = std::strtod(json.c_str() + b + 1, &end);
    if (end == nullptr || *end != ',') break;
    const std::int64_t n = std::strtoll(end + 1, &end, 10);
    if (end == nullptr || *end != ']') break;
    out[floor_us] += n;
    b = static_cast<std::size_t>(end - json.c_str()) + 1;
    if (b < json.size() && json[b] == ',') ++b;
  }
  return out;
}

double bucket_percentile(const std::map<double, std::int64_t>& after,
                         const std::map<double, std::int64_t>& before,
                         double p) {
  std::vector<std::pair<double, std::int64_t>> delta;
  std::int64_t total = 0;
  for (const auto& [floor_us, n] : after) {
    const auto it = before.find(floor_us);
    const std::int64_t d = n - (it == before.end() ? 0 : it->second);
    if (d > 0) {
      delta.emplace_back(floor_us, d);
      total += d;
    }
  }
  if (total == 0) return 0;
  const auto rank = static_cast<std::int64_t>(
      nearest_rank(static_cast<std::size_t>(total), p));
  std::int64_t seen = 0;
  for (const auto& [floor_us, n] : delta) {
    seen += n;
    if (seen >= rank) return floor_us;
  }
  return delta.back().first;
}

void Hasher::update(std::span<const char> bytes) {
  length_ += bytes.size();
  std::size_t i = 0;
  if (pending_len_ > 0) {
    while (pending_len_ < 8 && i < bytes.size()) pending_[pending_len_++] = bytes[i++];
    if (pending_len_ < 8) return;
    std::uint64_t word = 0;
    std::memcpy(&word, pending_, 8);
    mix(word);
    pending_len_ = 0;
  }
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    mix(word);
  }
  while (i < bytes.size()) pending_[pending_len_++] = bytes[i++];
}

std::uint64_t Hasher::digest() const {
  Hasher tail = *this;
  std::uint64_t word = 0;
  std::memcpy(&word, pending_, pending_len_);
  tail.mix(word);
  return mix64(tail.h_ ^ length_);
}

std::uint64_t hash_bytes(std::span<const char> bytes) {
  Hasher h;
  h.update(bytes);
  return h.digest();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string seeded_content(std::uint64_t seed, std::uint64_t file_id,
                           std::size_t size) {
  std::string out(size, '\0');
  std::uint64_t state = mix64(seed ^ mix64(file_id + 1));
  for (std::size_t off = 0; off < size; off += 8) {
    state = mix64(state);
    std::memcpy(out.data() + off, &state, std::min<std::size_t>(8, size - off));
  }
  return out;
}

}  // namespace livebench

#include "obs/stats.h"

#include <cmath>
#include <sstream>

namespace nest::obs {

double RollingRate::observe(Nanos now, std::int64_t cumulative) {
  MutexLock lock(mu_);
  samples_.emplace_back(now, cumulative);
  while (samples_.size() > 1 && samples_.front().first < now - window_) {
    samples_.pop_front();
  }
  const auto& [t0, c0] = samples_.front();
  if (now <= t0) return 0.0;
  return static_cast<double>(cumulative - c0) /
         to_seconds(now - t0);
}

double LoadAverage::observe(Nanos now, double instantaneous) {
  MutexLock lock(mu_);
  if (!primed_) {
    value_ = instantaneous;
    primed_ = true;
  } else {
    const Nanos dt = now > last_ ? now - last_ : 0;
    const double alpha =
        1.0 - std::exp(-static_cast<double>(dt) / static_cast<double>(tau_));
    value_ += alpha * (instantaneous - value_);
  }
  last_ = now;
  return value_;
}

double LoadAverage::value() const {
  MutexLock lock(mu_);
  return value_;
}

Stats::Stats() {
  // Fixed key set: the five wire protocols plus a catch-all. operator[]
  // here is the only mutation the map ever sees; request_latency() below
  // only does find(), so concurrent readers are safe.
  for (const char* p : {"chirp", "http", "ftp", "gridftp", "nfs", "other"}) {
    per_protocol_[p];
  }
}

Stats& Stats::global() {
  static Stats s;
  return s;
}

Histogram& Stats::request_latency(const std::string& protocol) {
  const auto it = per_protocol_.find(protocol);
  if (it != per_protocol_.end()) return it->second;
  return per_protocol_.find("other")->second;
}

namespace {
void histogram_json(std::ostringstream& os, const Histogram& h) {
  const Histogram::Snapshot s = h.snapshot();
  os << "{\"count\":" << s.count << ",\"mean_ms\":" << s.mean_ms()
     << ",\"p50_ms\":" << s.percentile_ms(50)
     << ",\"p90_ms\":" << s.percentile_ms(90)
     << ",\"p99_ms\":" << s.percentile_ms(99) << ",\"buckets\":[";
  bool first = true;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    const std::int64_t n = s.buckets[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (!first) os << ",";
    first = false;
    // [floor_us, count] pairs; only populated buckets are emitted.
    os << "[" << Histogram::bucket_floor(b) / 1000 << "," << n << "]";
  }
  os << "]}";
}
}  // namespace

std::string Stats::to_json() const {
  std::ostringstream os;
  os << "{\"requests\":" << requests.load(std::memory_order_relaxed)
     << ",\"errors\":" << errors.load(std::memory_order_relaxed)
     << ",\"bytes_queued\":" << bytes_queued.load(std::memory_order_relaxed)
     << ",\"cache_hot\":" << cache_hot.load(std::memory_order_relaxed)
     << ",\"cache_cold\":" << cache_cold.load(std::memory_order_relaxed)
     << ",\"request_latency\":";
  histogram_json(os, request_all);
  os << ",\"request_latency_by_protocol\":{";
  bool first = true;
  for (const auto& [proto, hist] : per_protocol_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << proto << "\":";
    histogram_json(os, hist);
  }
  os << "},\"sched_hold\":";
  histogram_json(os, sched_hold);
  os << ",\"transfer_latency\":";
  histogram_json(os, transfer_latency);
  os << ",\"journal_fsync_wait\":";
  histogram_json(os, journal_fsync_wait);
  os << ",\"journal_flush\":";
  histogram_json(os, journal_flush);
  os << ",\"hsm\":{\"migrations\":"
     << hsm_migrations.load(std::memory_order_relaxed)
     << ",\"recalls\":" << hsm_recalls.load(std::memory_order_relaxed)
     << ",\"recall_joins\":"
     << hsm_recall_joins.load(std::memory_order_relaxed)
     << ",\"bytes_migrated\":"
     << hsm_bytes_migrated.load(std::memory_order_relaxed)
     << ",\"bytes_recalled\":"
     << hsm_bytes_recalled.load(std::memory_order_relaxed)
     << ",\"staging_busy\":"
     << hsm_staging_busy.load(std::memory_order_relaxed)
     << ",\"recall_wait\":";
  histogram_json(os, hsm_recall_wait);
  os << ",\"migrate_time\":";
  histogram_json(os, hsm_migrate_time);
  os << "}}";
  return os.str();
}

void Stats::reset() {
  requests.store(0, std::memory_order_relaxed);
  errors.store(0, std::memory_order_relaxed);
  bytes_queued.store(0, std::memory_order_relaxed);
  cache_hot.store(0, std::memory_order_relaxed);
  cache_cold.store(0, std::memory_order_relaxed);
  hsm_migrations.store(0, std::memory_order_relaxed);
  hsm_recalls.store(0, std::memory_order_relaxed);
  hsm_recall_joins.store(0, std::memory_order_relaxed);
  hsm_bytes_migrated.store(0, std::memory_order_relaxed);
  hsm_bytes_recalled.store(0, std::memory_order_relaxed);
  hsm_staging_busy.store(0, std::memory_order_relaxed);
  request_all.reset();
  sched_hold.reset();
  transfer_latency.reset();
  journal_fsync_wait.reset();
  journal_flush.reset();
  hsm_recall_wait.reset();
  hsm_migrate_time.reset();
  for (auto& [proto, hist] : per_protocol_) hist.reset();
}

}  // namespace nest::obs

// Appliance-wide histograms, counters, and rate trackers (observability
// tentpole, PR 3).
//
// Stats::global() is the registry every instrumentation hook records
// into; the dispatcher exports it as JSON (`GET /stats`, the Chirp STATS
// op) and folds rolled-up numbers into the periodic discovery ClassAd.
// All members are wait-free atomics or atomic-bucket Histograms, so hooks
// are safe on the block-transfer hot path. A separate Stats instance can
// be constructed for unit tests; reset() is a test hook (not linearizable
// against concurrent writers).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/mutex.h"

namespace nest::obs {

// Average rate (units/sec) of a monotone cumulative counter over a
// trailing time window. observe() both samples and reports, so callers
// that poll periodically (ad and /stats queries) maintain the window for
// free. Mutex-guarded: callers are those queries, never the data path.
class RollingRate {
 public:
  explicit RollingRate(Nanos window = 30 * kSecond) : window_(window) {}
  double observe(Nanos now, std::int64_t cumulative);

 private:
  Nanos window_;
  Mutex mu_{lockrank::Rank::obs_load, "obs.rolling_rate"};
  std::deque<std::pair<Nanos, std::int64_t>> samples_ GUARDED_BY(mu_);
};

// Exponentially-weighted moving average with time constant `tau`; the
// classic load-average shape. observe() folds in an instantaneous sample.
class LoadAverage {
 public:
  explicit LoadAverage(Nanos tau = 60 * kSecond) : tau_(tau) {}
  double observe(Nanos now, double instantaneous);
  double value() const;

 private:
  Nanos tau_;
  mutable Mutex mu_{lockrank::Rank::obs_load, "obs.load_average"};
  Nanos last_ GUARDED_BY(mu_) = 0;
  double value_ GUARDED_BY(mu_) = 0.0;
  bool primed_ GUARDED_BY(mu_) = false;
};

class Stats {
 public:
  Stats();
  static Stats& global();

  // --- request accounting ---
  // Per-protocol request latency; unknown protocol names fall into the
  // "other" histogram. The key set is fixed at construction so concurrent
  // lookups never race a rehash.
  Histogram& request_latency(const std::string& protocol);
  const std::map<std::string, Histogram>& per_protocol() const {
    return per_protocol_;
  }
  Histogram request_all;                  // every request, all protocols
  std::atomic<std::int64_t> requests{0};  // completed (any outcome)
  std::atomic<std::int64_t> errors{0};    // completed with failure status

  // --- transfer path ---
  Histogram sched_hold;        // acquire→grant wait per block quantum
  Histogram transfer_latency;  // whole-transfer wall time
  // Bytes admitted (transfer registered) but not yet moved:
  // sum over live requests of max(0, size - done).
  std::atomic<std::int64_t> bytes_queued{0};
  // Cache-aware admission split: requests predicted resident vs not.
  std::atomic<std::int64_t> cache_hot{0};
  std::atomic<std::int64_t> cache_cold{0};

  // --- journal ---
  Histogram journal_fsync_wait;  // barrier wait per durable metadata op
  Histogram journal_flush;       // a commit leader's write + fsync per batch

  // --- HSM (cold tier) ---
  Histogram hsm_recall_wait;   // cold->hot staging wall time per recall
  Histogram hsm_migrate_time;  // hot->cold drain wall time per file
  std::atomic<std::int64_t> hsm_migrations{0};     // files drained cold
  std::atomic<std::int64_t> hsm_recalls{0};        // staged recalls executed
  std::atomic<std::int64_t> hsm_recall_joins{0};   // readers that piggybacked
  std::atomic<std::int64_t> hsm_bytes_migrated{0};
  std::atomic<std::int64_t> hsm_bytes_recalled{0};
  // Reads answered with the retryable staging error (recall pending).
  std::atomic<std::int64_t> hsm_staging_busy{0};

  // Snapshot-consistent JSON export of everything above.
  std::string to_json() const;
  void reset();

 private:
  std::map<std::string, Histogram> per_protocol_;
};

}  // namespace nest::obs

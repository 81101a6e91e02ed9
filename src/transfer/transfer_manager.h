// TransferManager: the policy heart of NeST's data movement (paper
// Section 4). Substrate-agnostic: the real thread-per-connection server and
// the discrete-event simulator both drive this same object, so the
// scheduling behaviour that the benchmarks measure is exactly the
// behaviour the appliance ships.
//
// Responsibilities here: request registry, scheduling policy (which
// pending quantum is serviced next), concurrency-model selection, and
// accounting. Actually moving bytes is the substrate's job. Model
// selection (pick_model/report_model and the adaptive selector) is used by
// the simulator only; the real server always runs thread-per-connection.
//
// Thread-safety: this object is a *single-threaded* policy brain. The
// aggregate counters (total_bytes/completed/in_flight) are atomics so
// monitoring reads (ClassAd publishing) are always safe, but the
// lifecycle and scheduling calls must be externally serialized —
// transfer::TransferCore is that serialization layer for the concurrent
// real-mode server; the simulator drives this object from its one engine
// thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/clock.h"
#include "common/result.h"
#include "transfer/cache_model.h"
#include "transfer/concurrency.h"
#include "transfer/request.h"
#include "transfer/scheduler.h"

namespace nest::transfer {

class TransferManager {
 public:
  struct Options {
    // fifo | stride | stride-nwc | stride-user | cache-aware
    std::string scheduler = "fifo";
    // Concurrency-model selection (sim only; the real server ignores it).
    bool adaptive = true;            // adapt the concurrency model?
    ConcurrencyModel fixed_model = ConcurrencyModel::threads;  // if !adaptive
    AdaptiveSelector::Options adapt;
    // Gray-box cache model sizing (estimate of the kernel cache).
    std::int64_t cache_model_bytes = 64LL * 1024 * 1024;
    std::int64_t cache_model_page = 8 * 1024;
  };

  TransferManager(Clock& clock, Options options);

  // --- request lifecycle ---
  TransferRequest* create_request(const std::string& protocol, Direction dir,
                                  const std::string& path, std::int64_t size,
                                  const std::string& user = {});
  void enqueue(TransferRequest* r) { scheduler_->enqueue(r); }
  TransferRequest* next() { return scheduler_->next(); }
  // Non-work-conserving hold hint (0 = none).
  Nanos hold_until() const;
  // Account bytes moved; feeds the scheduler, the byte total, and the
  // gray-box cache model.
  void charge(TransferRequest* r, std::int64_t bytes);
  void complete(TransferRequest* r);
  bool idle() const { return scheduler_->empty() && requests_.empty(); }
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  // --- concurrency model selection (single-threaded; sim only) ---
  ConcurrencyModel pick_model();
  void report_model(ConcurrencyModel m, double metric_value);
  AdaptiveSelector& selector() { return selector_; }

  // --- policy access ---
  Scheduler& scheduler() { return *scheduler_; }
  // Non-null when the configured policy is stride (for ticket setup).
  StrideScheduler* stride();
  CacheModel& cache_model() { return cache_model_; }

  // --- accounting ---
  std::int64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  std::int64_t completed_requests() const {
    return completed_.load(std::memory_order_relaxed);
  }

  const Options& options() const { return options_; }
  Clock& clock() const { return clock_; }

 private:
  Clock& clock_;
  Options options_;
  std::unique_ptr<Scheduler> scheduler_;
  AdaptiveSelector selector_;
  CacheModel cache_model_;
  std::map<std::uint64_t, std::unique_ptr<TransferRequest>> requests_;
  std::uint64_t next_id_ = 1;
  std::atomic<std::int64_t> total_bytes_{0};
  std::atomic<std::int64_t> completed_{0};
  std::atomic<std::size_t> in_flight_{0};
};

}  // namespace nest::transfer

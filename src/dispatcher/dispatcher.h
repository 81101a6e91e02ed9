// The dispatcher (paper Section 2.1): the main macro-request router.
//
// Protocol handlers hand it NestRequests. Non-transfer requests execute
// synchronously at the storage manager (which serializes them). Transfer
// requests are *approved* by the storage manager and then registered with
// the transfer manager, whose scheduler orders the actual data movement
// through the dispatcher's transfer::TransferCore. The dispatcher also
// consolidates resource and data availability and publishes it as a
// ClassAd into a discovery system.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "discovery/collector.h"
#include "hsm/hsm_manager.h"
#include "obs/stats.h"
#include "protocol/request.h"
#include "storage/storage_manager.h"
#include "transfer/admission.h"
#include "transfer/core.h"
#include "transfer/transfer_manager.h"

namespace nest::dispatcher {

// Reply for non-transfer requests: a status plus a textual payload whose
// meaning depends on the op (directory listing, lot description, ACL
// entries, resource ad).
struct Reply {
  Status status;
  std::string text;
  std::int64_t value = 0;  // stat size / created lot id

  static Reply ok(std::string text = {}, std::int64_t value = 0) {
    Reply r;
    r.text = std::move(text);
    r.value = value;
    return r;
  }
  static Reply fail(Status s) {
    Reply r;
    r.status = std::move(s);
    return r;
  }
};

class Dispatcher {
 public:
  struct Options {
    int transfer_slots = 8;
    std::string advertised_name = "nest";
    // Overload shedding at transfer approval (admission_target_ms /
    // admission_max_queue in the server config; disabled by default).
    transfer::AdmissionOptions admission;
  };

  Dispatcher(Clock& clock, storage::StorageManager& storage,
             transfer::TransferManager& tm);
  Dispatcher(Clock& clock, storage::StorageManager& storage,
             transfer::TransferManager& tm, Options options);

  // Execute a non-transfer request synchronously.
  Reply execute(const protocol::NestRequest& req);

  // Unlink `path`: every wire's unlink (and a failed FTP STOR's cleanup)
  // lands here, so the file also leaves the gray-box cache model.
  NEST_NODISCARD
  Status remove(const storage::Principal& who, const std::string& path);

  // Approve a transfer (ACL + lot admission) and register it with the
  // transfer manager. The handler then moves blocks through core().
  NEST_NODISCARD
  Result<storage::TransferTicket> approve_get(
      const protocol::NestRequest& req);
  NEST_NODISCARD
  Result<storage::TransferTicket> approve_put(
      const protocol::NestRequest& req);

  transfer::TransferManager& tm() { return tm_; }
  storage::StorageManager& storage() { return storage_; }
  // Optional cold-tier subsystem. When set, reads that hit cold data get
  // an automatic recall queued behind the retryable staging reply, and
  // the HSM ops (hsm_status/recall/migrate, lot_pin) become live.
  void set_hsm(hsm::HsmManager* hsm) { hsm_ = hsm; }
  hsm::HsmManager* hsm() { return hsm_; }
  // Connection threads block here until the scheduler grants their next
  // block a service slot.
  transfer::TransferCore& core() { return core_; }
  transfer::AdmissionController& admission() { return admission_; }

  // Consolidated availability ad (storage state + transfer load +
  // rolling load averages / per-protocol throughput from obs::Stats).
  classad::ClassAd snapshot_ad() const;

  // Live appliance statistics as JSON: request/transfer histograms,
  // throughput, load, storage and journal state. Served by `GET /stats`,
  // the Chirp STATS op, and `nest-cli stats`.
  std::string stats_json() const;

  // Publish the availability ad into a discovery collector once. nestd
  // runs no collector of its own: peers and clients pull the same ad
  // through the Chirp query_ad op and the cluster heartbeat.
  void publish_once(discovery::Collector& collector);

 private:
  Reply execute_impl(const protocol::NestRequest& req);
  // Admission gate shared by the approve paths: nullopt admits, an Error
  // (Errc::busy) sheds. Monitoring ops never pass through here, so the
  // appliance stays observable while it sheds.
  std::optional<Error> admit(const protocol::NestRequest& req);
  // One sample of the rolling rate/load trackers.
  struct LoadView {
    double mbps = 0.0;      // window-averaged total throughput
    double load_avg = 0.0;  // EWMA of slot occupancy
    std::map<std::string, double> class_mbps;  // per protocol class
  };
  // Sample every tracker once at `now` (under load_mu_). Every stats
  // surface calls this, so whichever ad or /stats poller runs keeps the
  // windows warm.
  LoadView observe_load(Nanos now) const;

  Clock& clock_;
  storage::StorageManager& storage_;
  transfer::TransferManager& tm_;
  hsm::HsmManager* hsm_ = nullptr;
  Options options_;
  transfer::TransferCore core_;
  // Latency-target shedder consulted by approve_get/approve_put; fed by
  // TransferCore's create/complete hooks (wired in the constructor).
  transfer::AdmissionController admission_;
  Nanos started_;

  // Rolling views over the monotone transfer counters; mutable because
  // snapshot_ad()/stats_json() are conceptually const reads. The trackers
  // carry their own obs_load-rank lock, acquired under load_mu_ (the map
  // itself is what load_mu_ guards against concurrent growth).
  mutable Mutex load_mu_{lockrank::Rank::dispatcher_load, "dispatcher.load"};
  mutable obs::RollingRate total_rate_ GUARDED_BY(load_mu_);
  mutable std::map<std::string, obs::RollingRate> proto_rates_
      GUARDED_BY(load_mu_);
  mutable obs::LoadAverage load_ GUARDED_BY(load_mu_);
};

}  // namespace nest::dispatcher

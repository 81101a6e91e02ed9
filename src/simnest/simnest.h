// SimNest: a NeST appliance bound to the discrete-event substrate.
//
// The policy brain is the *production* transfer::TransferCore — the same
// lifecycle/admission core (and, under it, the same schedulers and
// gray-box cache model) the real thread-per-connection server drives from
// concurrent connection threads, here driven single-threaded by the event
// engine. This class supplies the byte-moving substrate: simulated
// clients call client_get/client_put; blocks pass through a service gate
// whose admission order is decided by the core's scheduler. The
// concurrency models and the adaptive selector are sim-only: the
// TransferManager's selector picks a model per request, and the model
// determines which simulated OS costs each block pays (the event model
// serializes disk reads and copies behind a single loop; threads/processes
// run concurrently but pay creation and context switch costs).
//
// A JBOS native server (paper's comparison baseline) is the same machinery
// with a fixed single protocol, FIFO scheduling, and no adaptation — built
// via jbos_config().
#pragma once

#include <coroutine>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>

#include "sim/coro.h"
#include "sim/sync.h"
#include "simnest/protocol_model.h"
#include "simnest/simhost.h"
#include "transfer/core.h"
#include "transfer/transfer_manager.h"

namespace nest::simnest {

struct SimNestConfig {
  transfer::TransferManager::Options tm;
  // Concurrent block services admitted at once. Bounded so the scheduler's
  // queueing decisions matter, as in the real server's worker pool.
  int service_slots = 8;
  // Fixed per-request dispatcher overhead (virtual-protocol translation +
  // routing); this is the "implementation penalty" Figure 3 shows to be
  // small. Zero for JBOS native servers.
  Nanos dispatch_overhead = 15 * kMicrosecond;
  // Overload shedding, same policy object the real dispatcher consults
  // (disabled by default — transfers queue without bound, as before).
  transfer::AdmissionOptions admission;
  // Copy quantum for cold-tier migration/recall streams ("migrate" and
  // "recall" scheduler classes).
  std::int64_t hsm_block = 256 * 1024;
};

// Configuration for a JBOS-style native single-protocol server.
SimNestConfig jbos_config();

class SimNest {
 public:
  SimNest(SimHost& host, SimNestConfig config);

  // --- namespace setup (bench workload construction) ---
  void add_file(const std::string& path, std::int64_t size, bool cached);
  void evict(const std::string& path);
  std::int64_t file_size(const std::string& path) const;

  // --- cold tier (CASTOR-style HSM, docs/hsm.md) ---
  // Attach a second SimStore built from `profile` (use
  // PlatformProfile::tape2002()) as the cold tier.
  void attach_cold_tier(const sim::PlatformProfile& profile);
  // Register a file already resident on the cold tier.
  void add_cold_file(const std::string& path, std::int64_t size);
  bool is_cold(const std::string& path) const {
    return cold_files_.count(path) != 0;
  }
  // Drain a hot file to the cold tier; blocks move through the service
  // gate under the "migrate" class, so the stride scheduler paces the
  // drain against live clients. false when already cold or unknown.
  sim::Co<bool> migrate_file(std::string path);

  struct HsmCounters {
    std::int64_t migrations = 0;
    std::int64_t recalls = 0;       // staged recall executions
    std::int64_t recall_joins = 0;  // reads that joined an in-flight recall
    std::int64_t bytes_migrated = 0;
    std::int64_t bytes_recalled = 0;
  };
  const HsmCounters& hsm_counters() const { return hsm_; }
  sim::SimStore* cold_store() { return cold_store_.get(); }

  // --- simulated clients ---
  // Whole-file retrieval via `proto`; returns when the client has all
  // bytes. `user` feeds per-user proportional share when configured.
  // Returns false when admission control shed the request with `busy`
  // (the client paid the connection round trips, moved no data).
  sim::Co<bool> client_get(ProtocolBehavior proto, std::string path,
                           std::string user = {});
  // Whole-file store; bytes flow client -> server -> buffer cache/disk.
  sim::Co<bool> client_put(ProtocolBehavior proto, std::string path,
                           std::int64_t size, std::string user = {});

  transfer::TransferManager& tm() { return tm_; }
  transfer::TransferCore& core() { return core_; }
  transfer::AdmissionController& admission() { return admission_; }
  SimHost& host() { return host_; }

 private:
  struct FileInfo {
    std::uint64_t id = 0;
    std::int64_t size = 0;
  };

  // Admission gate: one slot per in-service block, ordered by the
  // TransferCore's scheduler. The core owns the slots and the queues;
  // this class only parks/resumes coroutines — the sim-substrate analogue
  // of the real server's blocking TransferCore::acquire.
  class ServiceGate {
   public:
    ServiceGate(sim::Engine& eng, transfer::TransferCore& core)
        : eng_(eng), core_(core) {}

    auto acquire(transfer::TransferRequest* r) {
      struct Awaiter {
        ServiceGate& gate;
        transfer::TransferRequest* req;
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) {
          gate.core_.submit(req);
          gate.waiters_[req] = h;
          gate.schedule_pump();
        }
        void await_resume() const noexcept {}
      };
      return Awaiter{*this, r};
    }

    void release() {
      core_.release_slot();
      schedule_pump();
    }

   private:
    void schedule_pump();
    void pump();

    sim::Engine& eng_;
    transfer::TransferCore& core_;
    bool pump_pending_ = false;
    std::unordered_map<transfer::TransferRequest*, std::coroutine_handle<>>
        waiters_;
  };

  sim::Co<void> serve_read_block(const ProtocolBehavior& proto,
                                 const FileInfo& file, std::int64_t offset,
                                 std::int64_t len,
                                 transfer::ConcurrencyModel model,
                                 Nanos setup_cost);
  sim::Co<void> serve_write_block(const ProtocolBehavior& proto,
                                  const FileInfo& file, std::int64_t offset,
                                  std::int64_t len,
                                  transfer::ConcurrencyModel model,
                                  Nanos setup_cost);
  Nanos model_block_cost(transfer::ConcurrencyModel model) const;
  Nanos model_setup_cost(transfer::ConcurrencyModel model) const;
  void report_completion(transfer::ConcurrencyModel model, Nanos latency,
                         std::int64_t bytes);
  // Stage `path` back to the hot tier if cold; a read that arrives while
  // another read's recall is in flight joins that flight (fan-in: one
  // tape mount serves all of them).
  sim::Co<void> ensure_hot(std::string path);

  SimHost& host_;
  SimNestConfig config_;
  transfer::TransferManager tm_;
  transfer::TransferCore core_;
  transfer::AdmissionController admission_;
  ServiceGate gate_;
  sim::Semaphore event_loop_;  // the single loop of the event model
  sim::Semaphore disk_stage_;  // staged model: file-I/O stage pool
  sim::Semaphore net_stage_;   // staged model: socket-I/O stage pool
  std::map<std::string, FileInfo> files_;
  std::uint64_t next_file_id_ = 1;

  // Cold tier: a second OS storage stack with tape-like costs. Files in
  // cold_files_ have their bytes there; a recall copies them back through
  // the service gate under the "recall" class.
  std::unique_ptr<sim::SimStore> cold_store_;
  std::set<std::string> cold_files_;
  std::map<std::string, std::unique_ptr<sim::SimEvent>> recall_flights_;
  HsmCounters hsm_;
};

}  // namespace nest::simnest

// TransferCore: the substrate-agnostic transfer path (paper Sections 3-4).
//
// One object owns the whole per-block transfer lifecycle — admission
// slots, scheduling, charging, and accounting — behind a narrow interface
// that both substrates drive with the *same* policy behaviour:
//
//   * real mode: connection threads call acquire()/charge()/release()
//     concurrently. Submissions and scheduler charges are pushed to
//     per-protocol-class shards (each with its own tiny lock) and
//     batch-drained into the still single-writer scheduler by whichever
//     thread holds the pump; a global sequence stamp restores exact
//     arrival order across shards. Slot grants wake exactly the granted
//     request through its own grant word (atomic_ref wait/notify) — no
//     broadcast condition variable, no thundering herd.
//   * sim mode: the discrete-event engine drives the identical object
//     single-threaded through submit()/try_grant()/release_slot(); every
//     deferred operation is applied, in submission order, before the next
//     scheduling decision, so policy traces are bit-identical to driving
//     the TransferManager directly.
//
// Hot-path locking (full hierarchy in docs/transfer-core.md):
//   charge()  — never blocks on the scheduler lock: relaxed atomic byte
//               counters, the cache-model lock, and a shard push.
//   acquire() — shard push + a pump attempt; blocks only on its own grant
//               word when no slot is free.
//   release() — atomic slot increment + a pump attempt.
// Only the pump (one thread at a time, elected by an atomic pending
// counter) takes the scheduler lock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "transfer/admission.h"
#include "transfer/transfer_manager.h"

namespace nest::transfer {

class TransferCore {
 public:
  TransferCore(TransferManager& tm, int slots);

  // --- request lifecycle (thread-safe) ---
  TransferRequest* create_request(const std::string& protocol, Direction dir,
                                  const std::string& path, std::int64_t size,
                                  const std::string& user = {});
  // Account `bytes` moved for `r`. Byte accounting is immediate and
  // lock-free; the scheduler charge is deferred to the shard and applied
  // before the next grant decision (callers charge before releasing their
  // slot, so proportional-share passes are never stale at the next pick).
  void charge(TransferRequest* r, std::int64_t bytes);
  // Retires `r` (completion count + registry erase). Flushes any of the
  // request's still-pending shard operations first, so the scheduler never
  // sees a dangling request pointer.
  void complete(TransferRequest* r);

  // Bytes charged so far per protocol class (every class this core has
  // created a request for). Exact: each count is updated at charge time.
  std::map<std::string, std::int64_t> class_bytes() const;

  // --- admission, real mode (blocking) ---
  // Submit `r` and block the calling thread until the scheduler grants it
  // a service slot.
  void acquire(TransferRequest* r);
  // Return the slot and hand it to the next scheduled request, waking
  // exactly that request's thread.
  void release();

  // --- admission, substrate-driven (the sim engine pumps explicitly) ---
  // Make `r` schedulable without waiting (the caller parks itself and is
  // resumed by its substrate when try_grant returns `r`).
  void submit(TransferRequest* r);
  // Drain pending shard operations and, if a slot is free and the
  // scheduler picks a request, consume the slot and return that request.
  // Returns nullptr when no slot is free or nothing should run now.
  TransferRequest* try_grant();
  // Return a slot without pumping (the sim schedules its own pump).
  void release_slot() { free_.fetch_add(1, std::memory_order_release); }
  // Non-work-conserving hold hint from the scheduler (0 = none).
  Nanos hold_until() const { return tm_.hold_until(); }

  int free_slots() const { return free_.load(std::memory_order_relaxed); }
  TransferManager& tm() { return tm_; }

  // --- admission control (optional) ---
  // When set, every create_request/complete pair is reported to the
  // controller, keeping its outstanding counts exact no matter which
  // substrate (or protocol handler) drives the lifecycle. The admit()
  // *decision* stays with the caller — the dispatcher or sim client
  // consults the controller before creating the request at all.
  void set_admission(AdmissionController* a) { admission_ = a; }
  AdmissionController* admission() const { return admission_; }

 private:
  enum class OpKind : std::uint8_t { submit, charge };
  struct Op {
    std::uint64_t seq = 0;
    TransferRequest* r = nullptr;
    OpKind kind = OpKind::submit;
    std::int64_t bytes = 0;
  };
  struct alignas(64) Shard {
    Mutex mu{lockrank::Rank::transfer_shard, "transfer.shard"};
    std::vector<Op> ops GUARDED_BY(mu);
  };
  static constexpr int kShards = 8;

  Shard& shard_for(const TransferRequest* r);
  void push_op(TransferRequest* r, OpKind kind, std::int64_t bytes);
  // Move every pending shard op into drain_buf_, restore global submission
  // order, and apply to the scheduler.
  void drain_locked() REQUIRES(sched_mu_);
  // Drain + grant free slots to scheduled requests, waking their threads.
  // Loops until no pump request raced in behind it.
  void pump();

  TransferManager& tm_;
  AdmissionController* admission_ = nullptr;
  std::atomic<int> free_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> seq_{1};
  // Outstanding pump requests; the thread whose increment finds 0 pumps on
  // behalf of everyone who piles on meanwhile.
  std::atomic<std::int64_t> pump_pending_{0};
  // Scheduler + drain (single writer).
  Mutex sched_mu_{lockrank::Rank::transfer_sched, "transfer.sched"};
  // Request registry (create/complete) and the class-counter map.
  mutable Mutex reg_mu_{lockrank::Rank::transfer_registry,
                        "transfer.registry"};
  // Insert-only: nodes never move or die, so requests keep a pointer to
  // their class's counter and charge through it without this lock.
  std::map<std::string, std::atomic<std::int64_t>> class_bytes_
      GUARDED_BY(reg_mu_);
  // Gray-box cache model (create/charge).
  Mutex cache_mu_{lockrank::Rank::transfer_cache, "transfer.cache"};
  std::vector<Op> drain_buf_ GUARDED_BY(sched_mu_);
};

}  // namespace nest::transfer

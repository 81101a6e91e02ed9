// TransferCore: the substrate-agnostic transfer path (paper Sections 3-4).
//
// One object owns the whole per-block transfer lifecycle — admission
// slots, scheduling, charging, and accounting — behind a narrow interface
// that both substrates drive with the *same* policy behaviour:
//
//   * real mode: connection threads call acquire()/charge()/release()
//     concurrently. One mutex serializes every call into the
//     single-threaded TransferManager, so submissions, charges, grants and
//     completions reach the scheduler in program order. Slot grants wake
//     exactly the granted request through its own grant word (atomic_ref
//     wait/notify) — no broadcast condition variable, no thundering herd.
//   * sim mode: the discrete-event engine drives the identical object
//     single-threaded through submit()/try_grant()/release_slot(), so
//     policy traces are bit-identical to driving the TransferManager
//     directly.
//
// Locking (docs/transfer-core.md): a GET/PUT block takes the lock three
// times (acquire, charge, release); an NFS RPC five (plus create and
// complete). Threads block on the lock only for the length of a
// scheduler call; a thread waiting for a slot waits on its grant word.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

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
  // Account `bytes` moved for `r`: the class counter and queued-bytes
  // gauge without the lock, then the scheduler charge and cache-model
  // observation under it (callers charge before releasing their slot, so
  // proportional-share passes are never stale at the next pick).
  void charge(TransferRequest* r, std::int64_t bytes);
  // Retires `r` (completion count + registry erase).
  void complete(TransferRequest* r);
  // `path` was unlinked: its pages leave the gray-box cache model.
  void observe_remove(const std::string& path);
  // Pages the cache model tracks (a leak gauge for tests).
  std::int64_t cache_tracked_pages() const;

  // Bytes charged so far per protocol class (every class this core has
  // created a request for). Exact: each count is updated at charge time.
  std::map<std::string, std::int64_t> class_bytes() const;

  // --- admission, real mode (blocking) ---
  // Submit `r` and block the calling thread until the scheduler grants it
  // a service slot. Real-mode callers need a work-conserving scheduler:
  // nothing here ends a stride-nwc hold, so a held request would wait
  // until some other release happened to grant it.
  void acquire(TransferRequest* r);
  // Return the slot and hand it to the next scheduled request, waking
  // exactly that request's thread.
  void release();

  // --- admission, substrate-driven (the sim engine pumps explicitly) ---
  // Make `r` schedulable without waiting (the caller parks itself and is
  // resumed by its substrate when try_grant returns `r`).
  void submit(TransferRequest* r);
  // If a slot is free and the scheduler picks a request, consume the slot
  // and return that request. Returns nullptr when no slot is free or
  // nothing should run now.
  TransferRequest* try_grant();
  // Return a slot without granting (the sim schedules its own pump).
  void release_slot();
  // Non-work-conserving hold hint from the scheduler (0 = none).
  Nanos hold_until() const;

  int free_slots() const;
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
  // Grant free slots to scheduled requests, waking their threads. The
  // grant word is stored and notified under mu_, and complete() erases
  // under mu_, so a grant never touches a freed request.
  void grant_locked() REQUIRES(mu_);

  TransferManager& tm_;
  AdmissionController* admission_ = nullptr;
  // Guards the TransferManager (registry, scheduler, cache model), the
  // free-slot count and the shape of the class-counter map.
  mutable Mutex mu_{lockrank::Rank::transfer_core, "transfer.core"};
  int free_ GUARDED_BY(mu_);
  // Insert-only: nodes never move or die, so requests keep a pointer to
  // their class's counter and charge through it without the lock.
  std::map<std::string, std::atomic<std::int64_t>> class_bytes_
      GUARDED_BY(mu_);
};

}  // namespace nest::transfer

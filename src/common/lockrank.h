// Runtime lock-rank deadlock detector (the dynamic half of the lock
// discipline; the static half is common/thread_annotations.h).
//
// Every nest::Mutex / nest::SharedMutex carries a Rank from the registry
// below — one rank per subsystem lock, ordered by the canonical
// acquisition order (outermost first). A thread may only acquire a lock
// whose rank is STRICTLY GREATER than every rank it already holds:
//
//   * acquiring a lower rank while holding a higher one is a lock-order
//     inversion — two threads doing it in opposite orders deadlock, a
//     cycle TSan's happens-before model cannot see (it needs the deadly
//     schedule; the rank check fires on EITHER order the first time it
//     runs);
//   * acquiring a rank already held (same lock or a sibling at the same
//     rank) is rejected too: std::mutex self-lock is UB, and two
//     same-rank locks have no defined order between them.
//
// On violation the detector prints the held-lock stack (each entry with
// the backtrace captured when it was acquired) plus the current backtrace,
// then aborts. Enabled by default in !NDEBUG builds; NEST_LOCKRANK=1/0 in
// the environment overrides (tier1.sh runs the plain test leg with it on).
// Disabled cost: one relaxed atomic load per acquire/release.
#pragma once

#include <cstdint>

namespace nest::lockrank {

// Canonical lock order, outermost (acquired first) to innermost. The
// numeric gaps leave room for future locks without renumbering. A thread
// holding rank R may only acquire ranks > R. docs/static-analysis.md
// documents the reasoning per edge; the load-bearing nestings today:
//
//   storage_meta < storage_file   (stat/create touch file data under mu_)
//   storage_meta < journal        (seal_batch appends under mu_)
//   journal < fault_point         (journal I/O failpoints fire under mu_)
//   cluster_membership < storage_meta/journal  (membership before journal,
//       never inverse: the heartbeat/status paths read the peer table and
//       then consult storage/journal state; the apply path must never hold
//       journal state while taking membership)
//   storage_meta < cluster_ship   (the replication hook enqueues sealed
//       batches under storage mu_)
//   hsm_state < storage_meta      (the recall executor election holds the
//       in-flight table while consulting residency; storage calls under
//       hsm_state are legal, the inverse is not)
//   transfer_sched < transfer_shard   (drain empties shards under sched)
//   dispatcher_load < obs_load    (observe_load samples trackers)
//   fault_registry < fault_point  (fault-list reads specs per point)
//   anything < metrics_stripe/logger  (leaf utilities, used everywhere)
enum class Rank : int {
  server_conn = 10,          // NestServer connection registry
  jbos_conn = 12,            // jbos::MiniServer connection registry
  kangaroo_spool = 14,       // KangarooMover spool queue
  nfs_handles = 16,          // NFS file-handle id maps
  dispatcher_pub = 18,       // Dispatcher publisher thread control
  hsm_worker = 19,           // HsmManager background worker control
  executor_throttle = 22,    // TransferExecutor token bucket
  dispatcher_load = 24,      // Dispatcher rolling load trackers
  transfer_admission = 25,   // AdmissionController shed/outstanding state
  discovery_collector = 26,  // discovery::Collector ad table
  cluster_membership = 27,   // cluster::PeerTable peer/liveness view
  cluster_selector = 28,     // cluster::ReplicaSelector EWMA state
  hsm_state = 29,            // hsm::RecallManager in-flight recall table
  storage_meta = 30,         // StorageManager lot/ACL/quota state
  storage_file = 34,         // MemFs per-file payload (shared)
  cluster_ship = 36,         // cluster replication ship queue + cursors
  journal = 38,              // journal::Journal append/commit state
  transfer_sched = 42,       // TransferCore scheduler + drain
  transfer_shard = 44,       // TransferCore per-class op shards
  transfer_registry = 46,    // TransferCore request registry
  transfer_cache = 48,       // TransferCore gray-box cache model
  obs_load = 60,             // obs::RollingRate / obs::LoadAverage
  obs_rings = 62,            // TraceBuffer ring registry
  obs_live = 64,             // trace live-buffer id registry
  fault_registry = 70,       // fault::Registry point table
  fault_point = 72,          // fault::FailPoint action state
  metrics_stripe = 80,       // BandwidthMeter / LatencyRecorder stripes
  logger = 90,               // Logger output lock (innermost: any code logs)
};

// Human-readable rank name for diagnostics.
const char* rank_name(Rank r) noexcept;

// Whether checking is active. Resolution order: set_enabled() override,
// else $NEST_LOCKRANK (read once), else on iff NDEBUG is not defined.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;  // test hook / programmatic override

// Called by the nest::Mutex wrappers. `what` is the lock's display name
// and must point at static storage. check_acquire runs BEFORE blocking on
// the underlying mutex (an inversion is reported even on schedules where
// the deadlock does not materialize); note_released runs after unlock.
void check_acquire(Rank r, const char* what) noexcept;
void note_released(Rank r) noexcept;

// Number of locks the calling thread currently holds (test hook).
int held_count() noexcept;

}  // namespace nest::lockrank

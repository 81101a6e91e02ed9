// StorageManager: NeST's storage component (paper Sections 2.1 and 5).
//
// Responsibilities: virtualize physical storage behind VirtualFs, execute
// non-transfer requests synchronously, enforce access control on every
// protocol uniformly, and manage guaranteed space in the form of lots.
// Lots are the only space ledger: a write is charged to the writer's lots,
// or, lot-less, admitted against the space no live lot guarantees.
// Transfer requests are only *approved* here (ACL + lot admission); the
// bytes are moved by the transfer manager.
//
// Durability: when a metadata journal is attached, every mutating
// lot/ACL/residency operation is sealed into one journal batch and the
// reply is withheld until Journal::commit() reports the batch durable — the
// write-ahead barrier that makes lot guarantees survive a nestd restart.
// attach_journal() replays snapshot + tail into the managers before the
// server accepts connections.
//
// Thread safety: the dispatcher serializes storage operations (the paper
// executes them synchronously in a thread-safe schedule); an internal mutex
// enforces that invariant even for callers outside the dispatcher. The
// journal commit wait deliberately happens *outside* that mutex so the
// journal can batch concurrent operations into one fsync.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "classad/classad.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/result.h"
#include "journal/journal.h"
#include "storage/acl.h"
#include "storage/journal_ops.h"
#include "storage/lot.h"
#include "storage/vfs.h"

namespace nest::storage {

struct StorageOptions {
  std::int64_t lot_capacity = 0;  // 0: use the backend's total space
  std::string superuser = "root";
  // When false, writes require a usable lot (strict Grid mode); when true,
  // lot-less writes are admitted if raw space remains (convenience mode
  // mirroring default user lots created by administrators).
  bool allow_lotless_writes = true;
  // Journal compaction cadence: snapshot + retire old segments after this
  // many sealed batches.
  std::uint64_t journal_snapshot_every = 4096;
};

// Grant returned when a transfer is approved; carries what the transfer
// manager needs to move bytes and what to undo on failure.
struct TransferTicket {
  std::string path;
  std::string user;  // approving principal ("" = anonymous)
  FileHandlePtr handle;
  std::int64_t size = 0;                  // known size (writes) or file size
  Nanos mtime = 0;                        // reads: file mtime at approval
  std::vector<LotAllocation> allocations; // lot charges backing a write
};

class StorageManager {
 public:
  StorageManager(Clock& clock, std::unique_ptr<VirtualFs> fs,
                 StorageOptions options = {});

  // --- Durable metadata journal ---
  // Recover lot/ACL/residency state from `j` (newest snapshot, then the
  // record tail), free the journal's recovery buffers, then route every
  // later metadata mutation through it.
  // Must run before the server serves requests. When `rebase_clock` is
  // set, recovered timestamps are shifted onto the current clock so lots
  // keep the remaining duration they had at the last journaled record
  // (downtime does not burn lease time); tests that compare raw state
  // across a simulated crash disable it.
  NEST_NODISCARD
  Status attach_journal(journal::Journal& j, bool rebase_clock = true);
  // Stats of the attached journal (nullopt when none), for operators
  // (nest-cli journal-stat).
  std::optional<journal::JournalStats> journal_stats() const;
  // Force a snapshot + compaction now (admin/test hook; the manager also
  // snapshots automatically every journal_snapshot_every batches).
  NEST_NODISCARD Status write_journal_snapshot();
  // Serialized lot/ACL/residency state stamped with `at` (recovery tests
  // compare shadow and replayed state byte-for-byte; the cluster layer
  // ships it to re-seed followers).
  std::string serialize_meta(Nanos at);

  // --- Cluster replication (primary streams sealed batches to followers;
  // src/cluster/ owns the transport, this class owns the hooks) ---
  // Primary side: invoked with every sealed batch — the LSN the local
  // journal assigned plus the exact payload — while mu_ is still held, so
  // batches enter the ship queue in LSN order. Set once at startup before
  // the server serves (like attach_journal); the hook must only enqueue
  // (rank cluster_ship sits above storage_meta for exactly this call).
  using ReplicationHook =
      std::function<void(journal::Lsn, const std::string&)>;
  void set_replication_hook(ReplicationHook hook);
  // Follower side: apply one shipped batch to the managers and append it
  // verbatim to the local journal (the follower's own LSN sequence), then
  // wait out the durability barrier. Guarded by the cluster.apply
  // failpoint.
  NEST_NODISCARD Status apply_replicated_batch(std::string_view payload);
  // Follower side: replace the entire metadata state with a primary
  // snapshot (restart / lagging-follower catch-up), journaling it as the
  // local snapshot so the follower recovers from it too.
  NEST_NODISCARD Status install_replica_snapshot(std::string_view payload);
  // Primary side: full-state snapshot plus the journal LSN it covers,
  // captured atomically with respect to concurrent mutations (the pair is
  // what re-seeds a follower whose cursor fell behind the ship queue).
  struct MetaSnapshot {
    std::string payload;
    journal::Lsn lsn = 0;
  };
  MetaSnapshot replica_snapshot();
  // Follower side: install replicated file *content* verbatim — no ACL
  // check, no lot accounting, no journal batch. The charges arrived
  // through the journal stream already; the bytes are the primary's push,
  // not a client write, so admitting them through the write path would
  // double-account every replicated file.
  NEST_NODISCARD
  Status install_replica_file(const std::string& path, std::string_view data);

  // --- Non-transfer requests (synchronous; paper Section 2.1) ---
  NEST_NODISCARD Status mkdir(const Principal& who, const std::string& path);
  NEST_NODISCARD Status rmdir(const Principal& who, const std::string& path);
  NEST_NODISCARD Status remove(const Principal& who, const std::string& path);
  NEST_NODISCARD
  Result<FileStat> stat(const Principal& who, const std::string& path) const;
  NEST_NODISCARD
  Result<std::vector<DirEntry>> list(const Principal& who,
                                     const std::string& path) const;
  // Rename = delete from old name + insert at new; the delete right on the
  // old path gates it (matching the historical dispatcher check).
  NEST_NODISCARD
  Status rename(const Principal& who, const std::string& from,
                const std::string& to);
  // Open an existing file for in-place block writes (NFS WRITE: no
  // truncate, no whole-file size). ACL-checked and mutex-protected like
  // every other path into the VirtualFs.
  NEST_NODISCARD
  Result<FileHandlePtr> open_for_append(const Principal& who,
                                        const std::string& path);
  // Space totals under the metadata lock (NFS STATFS).
  std::int64_t total_space() const;
  std::int64_t free_space() const;

  // --- Hierarchical storage: CASTOR-style cold tier (docs/hsm.md) ---
  // Attach a second VirtualFs holding the cold tier. Like attach_journal,
  // this runs once before the server serves; most call sites pass a
  // SlowFs-wrapped LocalFs (real mode) or a MemFs (tests/sim). HSM ops
  // fail with invalid_argument until a cold tier is attached.
  void attach_cold_tier(std::unique_ptr<VirtualFs> cold);
  bool cold_tier_attached() const;
  // Resolve the two filesystems against the replayed residency map after
  // attach_journal: delete hot strays for journaled-cold entries (the
  // deliberate double-residency window of an interrupted migrate/recall
  // commit) and GC cold files the journal does not know about (aborted
  // migrations). Server init calls this; meta-only recovery tests that
  // recreate the managers over fresh filesystems skip it.
  NEST_NODISCARD Status hsm_recover();

  // Migration/recall run as begin -> copy-outside-the-lock -> commit/abort
  // so the block copy can pace through the transfer scheduler without
  // holding the metadata mutex. The ticket carries both tier handles.
  struct HsmTicket {
    std::string path;   // normalized
    std::int64_t size = 0;
    std::string owner;
    FileHandlePtr src;  // read side (hot for migrate, cold for recall)
    FileHandlePtr dst;  // write side (cold for migrate, hot for recall)
  };
  // Begin draining `path` to the cold tier. Requires superuser or file
  // owner; refused while any charging lot is live or pinned, or while
  // another transition is in flight.
  NEST_NODISCARD
  Result<HsmTicket> hsm_begin_migrate(const Principal& who,
                                      const std::string& path);
  // The cold copy is fully written: journal residency=cold, release the
  // lot charges, then (after the durability barrier) delete the hot
  // copy. A crash between barrier and delete leaves both copies; the
  // recovery scrub finishes the delete.
  NEST_NODISCARD Status hsm_commit_migrate(const HsmTicket& t);
  void hsm_abort_migrate(const std::string& path);
  // Begin staging `path` back to the hot tier. Requires the read right;
  // re-admits the bytes as a lot-less file (raw-space check) so a recall
  // cannot overcommit space guaranteed to live lots.
  NEST_NODISCARD
  Result<HsmTicket> hsm_begin_recall(const Principal& who,
                                     const std::string& path);
  NEST_NODISCARD Status hsm_commit_recall(const HsmTicket& t);
  void hsm_abort_recall(const std::string& path);
  // Residency of a path: hot when no entry and the file exists.
  NEST_NODISCARD
  Result<hsm::Tier> hsm_tier(const Principal& who,
                             const std::string& path) const;
  struct HsmStats {
    std::int64_t cold_files = 0;
    std::int64_t cold_bytes = 0;
    std::int64_t migrating = 0;
    std::int64_t recalling = 0;
  };
  HsmStats hsm_stats() const;
  // Migration policy scan: files whose charging lots are ALL best-effort
  // (expired/terminated) and none pinned, not already cold or in
  // transition. The TierMigrator drains these.
  std::vector<std::string> hsm_migration_candidates(std::size_t max) const;
  // Pin/unpin a lot: pinned lots keep their files hot (owner/superuser,
  // journaled like every other lot mutation).
  NEST_NODISCARD
  Status lot_set_pin(const Principal& who, LotId id, bool pinned);

  // --- Transfer approval ---
  NEST_NODISCARD
  Result<TransferTicket> approve_read(const Principal& who,
                                      const std::string& path);
  // The ticket's file is empty. Overwriting a file frees its old bytes
  // after mu_ is released, so other metadata operations never wait on it.
  NEST_NODISCARD
  Result<TransferTicket> approve_write(const Principal& who,
                                       const std::string& path,
                                       std::int64_t size);

  // Post-hoc accounting for stream protocols whose writes carry no length
  // up front (FTP STOR): re-charges lots for the actual byte count.
  // On failure the caller should delete the partial file.
  NEST_NODISCARD
  Status charge_written(const Principal& who, const std::string& path,
                        std::int64_t bytes);

  // --- Lot management (reached via Chirp; paper Section 5) ---
  NEST_NODISCARD
  Result<LotId> lot_create(const Principal& who, std::int64_t capacity,
                           Nanos duration, bool group_lot = false);
  NEST_NODISCARD
  Status lot_renew(const Principal& who, LotId id, Nanos duration);
  NEST_NODISCARD Status lot_terminate(const Principal& who, LotId id);
  // Per-lot replication policy (cluster federation): how many replicas
  // files charged to this lot want (0 = cluster default). Owner or
  // superuser only; journaled like every other lot mutation.
  NEST_NODISCARD
  Status lot_set_replicas(const Principal& who, LotId id,
                          std::int64_t replicas);
  // Effective replica policy for a path: the max `replicas` across lots
  // charging it (0 when no charging lot sets one).
  std::int64_t replicas_for(const std::string& path) const;
  NEST_NODISCARD Result<Lot> lot_query(const Principal& who, LotId id) const;
  std::vector<Lot> lots_of(const Principal& who) const;
  // Operator listing: the superuser sees every lot, others their own.
  std::vector<Lot> lot_list(const Principal& who) const;

  // --- ACL management ---
  NEST_NODISCARD
  Status acl_set(const Principal& who, const std::string& dir,
                 const classad::ClassAd& entry);
  NEST_NODISCARD
  Status acl_clear(const Principal& who, const std::string& dir,
                   const std::string& principal_spec);
  NEST_NODISCARD
  Result<std::vector<std::string>> acl_get(const Principal& who,
                                           const std::string& dir) const;

  // Resource description published by the dispatcher (paper Section 2.1).
  classad::ClassAd resource_ad() const;

  const StorageOptions& options() const { return options_; }

 private:
  NEST_NODISCARD
  Status check(const Principal& who, const std::string& path,
               Right needed) const REQUIRES(mu_);
  MetaState meta_state() REQUIRES(mu_) {
    return MetaState{lots_, acl_, residency_};
  }

  // Journal the current lot state of `id` (erase record if it vanished).
  void record_lot_locked(LotId id) REQUIRES(mu_);
  // Append the accumulated batch (one record per client operation);
  // returns 0 when there is nothing to journal or no journal attached.
  Result<journal::Lsn> seal_batch_locked() REQUIRES(mu_);
  void maybe_snapshot_locked() REQUIRES(mu_);
  // Durability barrier, called WITHOUT mu_ so concurrent operations share
  // one journal leader's fsync. journal_ is read unguarded here: it is set
  // once in attach_journal (before the server serves) and never reassigned.
  Status barrier(journal::Lsn lsn) EXCLUDES(mu_);

  // Operation bodies, run under mu_ with batch recording.
  Status remove_locked(const Principal& who, const std::string& path)
      REQUIRES(mu_);
  Result<TransferTicket> approve_write_locked(const Principal& who,
                                              const std::string& path,
                                              std::int64_t size)
      REQUIRES(mu_);
  Status charge_written_locked(const Principal& who, const std::string& path,
                               std::int64_t bytes) REQUIRES(mu_);
  Result<LotId> lot_create_locked(const Principal& who, std::int64_t capacity,
                                  Nanos duration, bool group_lot)
      REQUIRES(mu_);
  Status lot_renew_locked(const Principal& who, LotId id, Nanos duration)
      REQUIRES(mu_);
  Status lot_terminate_locked(const Principal& who, LotId id) REQUIRES(mu_);
  Status lot_set_replicas_locked(const Principal& who, LotId id,
                                 std::int64_t replicas) REQUIRES(mu_);
  Status lot_set_pin_locked(const Principal& who, LotId id, bool pinned)
      REQUIRES(mu_);
  // Owner/superuser/group-member check shared by the lot mutators.
  bool owns_lot_locked(const Principal& who, const Lot& lot) const
      REQUIRES(mu_);
  // mkdir the missing ancestors of `norm` in `fs` (cold-tier mirror of
  // install_replica_file's parent materialization).
  Status materialize_parents_locked(VirtualFs& fs, const std::string& norm)
      REQUIRES(mu_);

  Clock& clock_;
  // The VirtualFs object itself (MemFs node table, LocalFs dirfd state) is
  // externally serialized by mu_; only per-file payloads carry their own
  // lock (rank storage_file, acquired under mu_ by stat/list).
  std::unique_ptr<VirtualFs> fs_ PT_GUARDED_BY(mu_);
  // Cold tier (may be null). Same serialization discipline as fs_.
  std::unique_ptr<VirtualFs> cold_fs_ PT_GUARDED_BY(mu_);
  StorageOptions options_;
  AccessControl acl_ GUARDED_BY(mu_);
  LotManager lots_ GUARDED_BY(mu_);
  hsm::ResidencyMap residency_ GUARDED_BY(mu_);
  // Set once by attach_journal() before the server accepts connections,
  // read-only afterwards; barrier() reads it outside mu_ by design (the
  // commit wait must not hold the metadata lock), so it stays unguarded.
  journal::Journal* journal_ = nullptr;
  // Same single-assignment discipline as journal_: set before serving,
  // invoked under mu_ from seal_batch_locked.
  ReplicationHook replication_hook_;
  MetaBatch batch_ GUARDED_BY(mu_);
  mutable Mutex mu_{lockrank::Rank::storage_meta, "storage.mu"};
};

}  // namespace nest::storage

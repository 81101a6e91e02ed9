// Durable write-ahead metadata journal (paper Section 5 manageability:
// lots are *guaranteed* reservations, so the state backing them must
// survive a nestd restart).
//
// Layout: a journal directory holds numbered segment files plus at most
// one live snapshot.
//
//   seg-<first-lsn>.wal     sequence of checksummed record frames
//   snap-<lsn>.snp          full-state snapshot superseding lsns <= lsn
//
// Frame format (little-endian):
//   u32 payload_len | u32 crc32c(lsn || payload) | u64 lsn | payload
//
// LSNs are assigned monotonically at append() and are contiguous; a gap
// or checksum mismatch marks the torn tail of the log, which recovery
// truncates (a crash mid-write never corrupts acknowledged records
// because acknowledgment waits for commit()).
//
// Recovery reads each segment into one buffer sized by fstat, validates
// its frames in place, and keeps the buffer (cut at the last valid
// frame) until the owner has replayed it: no record is copied.
//
// Commit: the first commit() caller that finds no flush in flight leads —
// it writes every pending frame outside the lock, fsyncs them (unless sync
// is none, a benchmark baseline) and wakes the followers; appends made
// meanwhile form the next batch, so concurrent commits share one fsync.
//
// Crash-point fault injection: `journal.crash=after(n)return()` tears frame
// n+1, discards un-fsynced bytes (emulating page-cache loss), and kills the
// journal — every later append or commit fails. Tests reopen the directory
// and assert replay converges to exactly the acknowledged prefix. Other
// failpoints: journal.append, journal.write, journal.fsync,
// journal.segment_roll, journal.snapshot.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/result.h"

namespace nest::journal {

// Log sequence number; 1 is the first record, 0 means "nothing".
using Lsn = std::uint64_t;

enum class SyncMode { none, always };

// "none" | "always". "group" is accepted as an old name for always: every
// durable commit batches now.
NEST_NODISCARD Result<SyncMode> sync_mode_by_name(const std::string& name);

struct JournalOptions {
  std::string dir;
  SyncMode sync = SyncMode::always;
  std::int64_t segment_bytes = 4 * 1024 * 1024;  // roll threshold
};

struct JournalStats {
  Lsn last_lsn = 0;
  Lsn durable_lsn = 0;
  Lsn snapshot_lsn = 0;
  int segment_count = 0;
  std::uint64_t records_since_snapshot = 0;
  Nanos snapshot_time = 0;  // clock time of the live snapshot (0 = none)
  std::uint64_t appends = 0;
  std::uint64_t commits = 0;
  std::uint64_t fsyncs = 0;
  // Start-up recovery: records past the snapshot, bytes read (snapshot
  // plus segments), and the time from open() until the owner dropped the
  // recovered tail (scan, snapshot install and replay).
  std::uint64_t recovered_records = 0;
  std::uint64_t recovered_bytes = 0;
  Nanos recovery_time = 0;
};

class Journal {
 public:
  // Opens (creating the directory if needed) and recovers: loads the
  // newest valid snapshot, scans the segment tail, truncates at the
  // first torn/corrupt frame, and positions the append head.
  NEST_NODISCARD
  static Result<std::unique_ptr<Journal>> open(Clock& clock,
                                               JournalOptions options);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Sequence a record. The record is buffered; it is durable only once
  // commit(lsn) returns ok.
  NEST_NODISCARD Result<Lsn> append(std::string payload);

  // Durability barrier for every record up to `upto` (clamped to the last
  // appended LSN).
  NEST_NODISCARD Status commit(Lsn upto);

  // append + commit in one call.
  NEST_NODISCARD Result<Lsn> append_commit(std::string payload);

  // --- Recovery artifacts (valid after open, until drop_recovered_tail) ---
  // The newest valid snapshot's payload, a view into the snapshot file's
  // bytes.
  std::optional<std::string_view> snapshot_payload() const {
    return snapshot_payload_;
  }
  Lsn snapshot_lsn() const {
    MutexLock lock(mu_);
    return snapshot_lsn_;
  }
  // Invoke `fn` for every recovered record with lsn > snapshot_lsn, in
  // LSN order. The payload is a view into the recovered segment buffers
  // and is valid only during the callback: a callback that keeps it must
  // copy it. A failed callback aborts replay with its status.
  NEST_NODISCARD
  Status replay(const std::function<Status(Lsn, std::string_view)>& fn);
  // Free the recovery buffers (segments and snapshot) once the owner has
  // replayed them; this ends the window stats().recovery_time reports.
  void drop_recovered_tail();

  // Write a full-state snapshot covering every appended record, roll to
  // a fresh segment, and delete segments and snapshots it supersedes.
  NEST_NODISCARD Status write_snapshot(const std::string& payload);

  JournalStats stats() const;
  bool dead() const;

 private:
  explicit Journal(Clock& clock, JournalOptions options);

  // Runs under mu_ from open(): no other thread exists yet, but holding
  // the lock keeps every access to the guarded members analyzable.
  Status recover() REQUIRES(mu_);
  Status open_segment_locked(Lsn start_lsn) REQUIRES(mu_);
  // The shared commit loop: returns once every record up to `upto` is
  // durable, leading a flush or waiting on one as needed. Releases mu_
  // while a flush it leads does its I/O.
  Status sync_locked(MutexLock& lock, Lsn upto) REQUIRES(mu_);

  Clock& clock_;
  JournalOptions options_;

  mutable Mutex mu_{lockrank::Rank::journal, "journal.mu"};
  CondVar durable_cv_;

  // Append state.
  Lsn next_lsn_ GUARDED_BY(mu_) = 1;
  Lsn durable_lsn_ GUARDED_BY(mu_) = 0;
  // Encoded frames awaiting flush; with no flush in flight the first one
  // is durable_lsn_ + 1.
  std::vector<std::string> pending_ GUARDED_BY(mu_);
  // A leader is writing a batch with mu_ released: it alone touches the
  // live segment until it clears this.
  bool flushing_ GUARDED_BY(mu_) = false;
  bool dead_ GUARDED_BY(mu_) = false;

  // Current segment.
  int fd_ GUARDED_BY(mu_) = -1;
  std::string seg_path_ GUARDED_BY(mu_);
  // Bytes written (incl. header).
  std::int64_t seg_size_ GUARDED_BY(mu_) = 0;
  // Bytes covered by the last fsync.
  std::int64_t seg_durable_size_ GUARDED_BY(mu_) = 0;

  struct Segment {
    std::string path;
    Lsn start_lsn = 0;
  };
  // In start-LSN order; back() is live.
  std::vector<Segment> segments_ GUARDED_BY(mu_);

  // Snapshot state.
  Lsn snapshot_lsn_ GUARDED_BY(mu_) = 0;
  std::string snapshot_path_ GUARDED_BY(mu_);
  Nanos snapshot_time_ GUARDED_BY(mu_) = 0;
  std::uint64_t records_since_snapshot_ GUARDED_BY(mu_) = 0;

  // Recovery buffers. Written once under mu_ in recover() and read-only
  // afterwards: the unlocked snapshot_payload()/replay() are the
  // documented single-owner handoff to attach_journal before the journal
  // serves concurrent callers; drop_recovered_tail() frees them.
  // The chosen snapshot file's bytes, and its payload within them.
  std::string snapshot_file_;
  std::optional<std::string_view> snapshot_payload_;
  // Each segment holding records past the snapshot, cut at its last
  // valid frame, in LSN order.
  std::vector<std::string> tail_segments_;

  // Counters.
  std::uint64_t appends_ GUARDED_BY(mu_) = 0;
  std::uint64_t commits_ GUARDED_BY(mu_) = 0;
  std::uint64_t fsyncs_ GUARDED_BY(mu_) = 0;
  std::uint64_t recovered_records_ GUARDED_BY(mu_) = 0;
  std::uint64_t recovered_bytes_ GUARDED_BY(mu_) = 0;
  Nanos recovery_start_ GUARDED_BY(mu_) = 0;
  Nanos recovery_time_ GUARDED_BY(mu_) = 0;
};

}  // namespace nest::journal

#include "journal/journal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/log.h"
#include "fault/failpoint.h"
#include "journal/crc32c.h"
#include "journal/record.h"
#include "obs/stats.h"

namespace nest::journal {

namespace {

constexpr std::uint32_t kSegmentMagic = 0x4a54534e;  // "NSTJ"
constexpr std::uint32_t kSnapshotMagic = 0x50534e4e;  // "NNSP"
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kSegmentHeaderBytes = 4 + 4 + 8;

std::string lsn_name(const char* prefix, Lsn lsn, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%016llx%s", prefix,
                static_cast<unsigned long long>(lsn), suffix);
  return buf;
}

// Parse "<prefix><16 hex><suffix>"; returns the LSN or nullopt.
std::optional<Lsn> parse_lsn_name(const std::string& name,
                                  const char* prefix, const char* suffix) {
  const std::size_t plen = std::strlen(prefix);
  const std::size_t slen = std::strlen(suffix);
  if (name.size() != plen + 16 + slen) return std::nullopt;
  if (name.compare(0, plen, prefix) != 0) return std::nullopt;
  if (name.compare(plen + 16, slen, suffix) != 0) return std::nullopt;
  Lsn lsn = 0;
  for (std::size_t i = plen; i < plen + 16; ++i) {
    const char c = name[i];
    lsn <<= 4;
    if (c >= '0' && c <= '9') lsn |= static_cast<Lsn>(c - '0');
    else if (c >= 'a' && c <= 'f') lsn |= static_cast<Lsn>(c - 'a' + 10);
    else return std::nullopt;
  }
  return lsn;
}

Status write_all_fd(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status{Errc::io_error,
                    std::string("journal write: ") + std::strerror(errno)};
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return {};
}

Status fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    return Status{Errc::io_error, "fsync open " + path};
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status{Errc::io_error, "fsync " + path};
  return {};
}

// The whole file in one buffer sized by fstat, read in as few read()s as
// the kernel allows.
Result<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    return Error{Errc::io_error, "open " + path + ": " + std::strerror(errno)};
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Error{Errc::io_error, "stat " + path};
  }
  std::string out(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Error{Errc::io_error, "read " + path};
    }
    if (n == 0) break;  // shrank since the fstat: keep what is there
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(got);
  return out;
}

// Frame = len | crc | lsn | payload; crc covers lsn bytes + payload.
std::string encode_frame(Lsn lsn, std::string_view payload) {
  RecordWriter body;
  body.u64(lsn);
  std::string inner = body.take();
  inner.append(payload.data(), payload.size());
  RecordWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(crc32c(inner));
  std::string out = frame.take();
  out += inner;
  return out;
}

// One leader's batch, run with the journal lock released, so it touches
// only its arguments: append `frames` to segment `fd` (`size` tracks its
// length) and fsync them if `fsync_after`. A failed write or fsync, or an
// injected crash (which also leaves half a frame of tear bait), cuts the
// segment back to its last fsynced size, frames of this very batch
// included: their ops are reported as failed, so their bytes must not
// survive into recovery.
Status write_batch(int fd, const std::string& path,
                   const std::vector<std::string>& frames, bool fsync_after,
                   std::int64_t durable_size, std::int64_t& size) {
  const auto cut_back = [&](Status s, std::string_view tear = {}) {
    const std::int64_t keep =
        durable_size > 0 ? durable_size
                         : static_cast<std::int64_t>(kSegmentHeaderBytes);
    // Already failing: shrinking back to the durable prefix is damage control.
    (void)::ftruncate(fd, static_cast<off_t>(keep));
    // Seek result is irrelevant: the journal is dead after this batch.
    (void)::lseek(fd, 0, SEEK_END);
    // Tear bait (crash only); a short write tears just as well.
    (void)write_all_fd(fd, tear.data(), tear.size());
    size = keep + static_cast<std::int64_t>(tear.size());
    return s;
  };
  for (const std::string& frame : frames) {
    NEST_FAILPOINT("journal.crash",
                   return cut_back(Status{Errc::io_error,
                                          "journal crashed (injected)"},
                                   std::string_view(frame).substr(
                                       0, frame.size() / 2)));
    Status ws;
    NEST_FAILPOINT("journal.write", ws = Status{err});
    if (ws.ok()) ws = write_all_fd(fd, frame.data(), frame.size());
    if (!ws.ok()) return cut_back(ws);
    size += static_cast<std::int64_t>(frame.size());
  }
  if (!fsync_after) return {};
  Status fs;
  NEST_FAILPOINT("journal.fsync", fs = Status{err});
  if (fs.ok() && ::fsync(fd) != 0)
    fs = Status{Errc::io_error, "fsync " + path};
  if (!fs.ok()) return cut_back(fs);
  return {};
}

}  // namespace

Result<SyncMode> sync_mode_by_name(const std::string& name) {
  if (name == "none") return SyncMode::none;
  if (name == "always" || name == "group") return SyncMode::always;
  return Error{Errc::invalid_argument, "unknown journal sync '" + name + "'"};
}

Journal::Journal(Clock& clock, JournalOptions options)
    : clock_(clock), options_(std::move(options)) {}

Result<std::unique_ptr<Journal>> Journal::open(Clock& clock,
                                               JournalOptions options) {
  const Nanos start = clock.now();
  if (options.dir.empty())
    return Error{Errc::invalid_argument, "journal dir is empty"};
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Error{Errc::io_error,
                 "mkdir " + options.dir + ": " + std::strerror(errno)};
  }
  std::unique_ptr<Journal> j(new Journal(clock, std::move(options)));
  {
    // No other thread exists yet; the lock is for analyzability only.
    MutexLock lock(j->mu_);
    if (auto s = j->recover(); !s.ok()) return Error{s.error()};
    j->recovery_start_ = start;
    j->recovery_time_ = clock.now() - start;
  }
  return j;
}

Journal::~Journal() {
  MutexLock lock(mu_);
  // Shutdown flush is best-effort; a failed flush marks the journal dead.
  (void)sync_locked(lock, next_lsn_ - 1);
  if (fd_ >= 0) ::close(fd_);
}

Status Journal::recover() {
  // Enumerate snapshots and segments.
  DIR* d = ::opendir(options_.dir.c_str());
  if (!d) return Status{Errc::io_error, "opendir " + options_.dir};
  std::vector<std::pair<Lsn, std::string>> snaps;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (auto lsn = parse_lsn_name(name, "seg-", ".wal")) {
      segments_.push_back(Segment{options_.dir + "/" + name, *lsn});
    } else if (auto slsn = parse_lsn_name(name, "snap-", ".snp")) {
      snaps.emplace_back(*slsn, options_.dir + "/" + name);
    }
  }
  ::closedir(d);
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) {
              return a.start_lsn < b.start_lsn;
            });
  std::sort(snaps.begin(), snaps.end());

  // Newest snapshot that validates wins; corrupt ones are skipped.
  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    auto bytes = read_file(it->second);
    if (!bytes.ok()) continue;
    recovered_bytes_ += bytes->size();
    RecordReader r(*bytes);
    const std::uint32_t magic = r.u32();
    const std::uint32_t version = r.u32();
    const Lsn lsn = r.u64();
    const Nanos time = r.i64();
    const std::uint32_t crc = r.u32();
    const std::string_view payload = r.str();
    if (!r.good() || magic != kSnapshotMagic || version != kVersion ||
        crc32c(payload) != crc) {
      NEST_LOG_WARN("journal", "ignoring corrupt snapshot %s",
                    it->second.c_str());
      continue;
    }
    snapshot_lsn_ = lsn;
    snapshot_time_ = time;
    // The view is taken after the move: it must point into the member.
    const auto at = static_cast<std::size_t>(payload.data() - bytes->data());
    snapshot_file_ = std::move(*bytes);
    snapshot_payload_ =
        std::string_view(snapshot_file_).substr(at, payload.size());
    snapshot_path_ = it->second;
    break;
  }

  // Scan segments in order, validating each frame in place in the
  // segment's buffer; buffers holding records past the snapshot are kept
  // for replay(). The first invalid frame is the torn tail: truncate
  // there and discard anything after it (later segments included — they
  // cannot contain acknowledged records if an earlier write never
  // completed).
  Lsn last_lsn = snapshot_lsn_;
  bool torn = false;
  std::size_t keep_segments = segments_.size();
  for (std::size_t si = 0; si < segments_.size(); ++si) {
    if (torn) {
      keep_segments = std::min(keep_segments, si);
      break;
    }
    const Segment& seg = segments_[si];
    auto bytes = read_file(seg.path);
    if (!bytes.ok()) return Status{bytes.error()};
    recovered_bytes_ += bytes->size();
    RecordReader r(*bytes);
    const std::uint32_t magic = r.u32();
    const std::uint32_t version = r.u32();
    const Lsn start = r.u64();
    std::size_t good = 0;
    bool has_tail = false;
    if (!r.good() || magic != kSegmentMagic || version != kVersion ||
        start != seg.start_lsn) {
      torn = true;
    } else {
      good = kSegmentHeaderBytes;
      while (!r.done()) {
        const std::uint32_t len = r.u32();
        const std::uint32_t crc = r.u32();
        const std::string_view inner = r.bytes(sizeof(Lsn) + len);
        if (!r.good() || crc32c(inner) != crc) {
          torn = true;
          break;
        }
        const Lsn lsn = RecordReader(inner).u64();
        // A sequence break also ends the trusted prefix.
        if (lsn > snapshot_lsn_) {
          if (lsn != last_lsn + 1) {
            torn = true;
            break;
          }
          last_lsn = lsn;
          ++recovered_records_;
          has_tail = true;
        } else if (lsn > last_lsn) {
          last_lsn = lsn;
        }
        good = bytes->size() - r.remaining();
      }
    }
    if (torn) {
      NEST_LOG_WARN("journal", "truncating torn tail of %s at %zu bytes",
                    seg.path.c_str(), good);
      if (good < kSegmentHeaderBytes) {
        // Not even a valid header: drop the segment file entirely.
        // Best-effort: an undeleted segment is re-dropped next recovery.
        (void)::unlink(seg.path.c_str());
        keep_segments = std::min(keep_segments, si);
      } else {
        if (::truncate(seg.path.c_str(), static_cast<off_t>(good)) != 0) {
          return Status{Errc::io_error, "truncate " + seg.path};
        }
        // Best-effort: an unsynced truncate is simply re-done next recovery.
        (void)fsync_path(seg.path);
        keep_segments = std::min(keep_segments, si + 1);
      }
    }
    if (has_tail) {
      bytes->resize(good);
      tail_segments_.push_back(std::move(*bytes));
    }
  }
  for (std::size_t si = keep_segments; si < segments_.size(); ++si) {
    NEST_LOG_WARN("journal", "dropping unreachable segment %s",
                  segments_[si].path.c_str());
    // Best-effort: an undeleted segment is re-dropped next recovery.
    (void)::unlink(segments_[si].path.c_str());
  }
  segments_.resize(keep_segments);

  next_lsn_ = last_lsn + 1;
  durable_lsn_ = last_lsn;
  records_since_snapshot_ = recovered_records_;

  // Append head: always start a fresh segment — cheap, and it never
  // reopens a file whose tail state we would otherwise have to trust.
  return open_segment_locked(next_lsn_);
}

Status Journal::open_segment_locked(Lsn start_lsn) {
  NEST_FAILPOINT("journal.segment_roll", return Status{err});
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  seg_path_ = options_.dir + "/" + lsn_name("seg-", start_lsn, ".wal");
  fd_ = ::open(seg_path_.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd_ < 0)
    return Status{Errc::io_error,
                  "create " + seg_path_ + ": " + std::strerror(errno)};
  RecordWriter hdr;
  hdr.u32(kSegmentMagic);
  hdr.u32(kVersion);
  hdr.u64(start_lsn);
  const std::string bytes = hdr.take();
  if (auto s = write_all_fd(fd_, bytes.data(), bytes.size()); !s.ok())
    return s;
  seg_size_ = static_cast<std::int64_t>(bytes.size());
  seg_durable_size_ = 0;
  if (options_.sync != SyncMode::none) {
    if (::fsync(fd_) != 0)
      return Status{Errc::io_error, "fsync " + seg_path_};
    ++fsyncs_;
    seg_durable_size_ = seg_size_;
    // Best-effort: a lost directory entry reads as a missing tail segment,
    // which recovery tolerates.
    (void)fsync_path(options_.dir);
  }
  // Re-creating a path already in the list (recovery truncated it to a
  // bare header) must not leave a duplicate entry behind.
  std::erase_if(segments_,
                [&](const Segment& s) { return s.path == seg_path_; });
  segments_.push_back(Segment{seg_path_, start_lsn});
  return {};
}

Result<Lsn> Journal::append(std::string payload) {
  MutexLock lock(mu_);
  if (dead_) return Error{Errc::io_error, "journal is dead (injected crash)"};
  // An append-layer failure kills the journal: the storage layer has
  // already mutated in-memory state when it seals a batch, so "record
  // refused but journal still live" would let later acked ops diverge
  // from what replay reconstructs.
  NEST_FAILPOINT("journal.append", {
    dead_ = true;
    durable_cv_.notify_all();
    return err;
  });
  const Lsn lsn = next_lsn_++;
  pending_.push_back(encode_frame(lsn, payload));
  ++appends_;
  ++records_since_snapshot_;
  return lsn;
}

Status Journal::sync_locked(MutexLock& lock, Lsn upto) {
  upto = std::min(upto, next_lsn_ - 1);
  while (durable_lsn_ < upto) {
    if (dead_) return Status{Errc::io_error, "journal is dead"};
    if (flushing_) {
      durable_cv_.wait(lock);
      continue;
    }
    // Lead. Roll when the live segment is over the threshold; the new
    // segment starts at the first pending LSN.
    if (seg_size_ >= options_.segment_bytes) {
      if (auto s = open_segment_locked(durable_lsn_ + 1); !s.ok()) {
        // A WAL that cannot open its next segment is broken: marking it
        // dead keeps the pending frames from becoming durable on a later
        // retry after their ops were already reported as failed.
        dead_ = true;
        durable_cv_.notify_all();
        return s;
      }
    }
    std::vector<std::string> batch;
    batch.swap(pending_);
    const Lsn batch_last = next_lsn_ - 1;
    const int fd = fd_;
    const std::string path = seg_path_;
    const std::int64_t durable_size = seg_durable_size_;
    std::int64_t size = seg_size_;
    flushing_ = true;
    // The I/O below touches only the locals above. mu_ is released on the
    // capability itself (not through `lock`) so the analysis sees exactly
    // which members stay off limits until it is reacquired.
    mu_.unlock();
    const Nanos flush_start = clock_.now();
    const Status s = write_batch(fd, path, batch,
                                 options_.sync != SyncMode::none,
                                 durable_size, size);
    obs::Stats::global().journal_flush.record(clock_.now() - flush_start);
    mu_.lock();
    flushing_ = false;
    seg_size_ = size;
    // Followers recheck once this thread releases mu_.
    durable_cv_.notify_all();
    if (!s.ok()) {
      dead_ = true;
      return s;
    }
    if (options_.sync != SyncMode::none) ++fsyncs_;
    seg_durable_size_ = size;
    durable_lsn_ = batch_last;
  }
  return {};
}

Status Journal::commit(Lsn upto) {
  MutexLock lock(mu_);
  ++commits_;
  return sync_locked(lock, upto);
}

Result<Lsn> Journal::append_commit(std::string payload) {
  auto lsn = append(std::move(payload));
  if (!lsn.ok()) return lsn;
  if (auto s = commit(*lsn); !s.ok()) return Error{s.error()};
  return lsn;
}

Status Journal::replay(
    const std::function<Status(Lsn, std::string_view)>& fn) {
  // recover() validated every frame kept here; walk them by their headers.
  // A kept segment may start with frames the snapshot already covers.
  const Lsn after = snapshot_lsn();
  for (const std::string& segment : tail_segments_) {
    RecordReader r(segment);
    r.skip(kSegmentHeaderBytes);
    while (!r.done()) {
      const std::uint32_t len = r.u32();
      r.skip(sizeof(std::uint32_t));  // crc
      const Lsn lsn = r.u64();
      const std::string_view payload = r.bytes(len);
      if (lsn <= after) continue;
      if (auto s = fn(lsn, payload); !s.ok()) return s;
    }
  }
  return {};
}

void Journal::drop_recovered_tail() {
  snapshot_payload_.reset();
  std::string().swap(snapshot_file_);
  std::vector<std::string>().swap(tail_segments_);
  MutexLock lock(mu_);
  recovery_time_ = clock_.now() - recovery_start_;
}

Status Journal::write_snapshot(const std::string& payload) {
  MutexLock lock(mu_);
  // The snapshot covers every record appended so far: make them durable
  // first so the on-disk state never goes backwards if the snapshot write
  // dies. Records other threads append meanwhile stay in the log.
  const Lsn snap_lsn = next_lsn_ - 1;
  if (auto s = sync_locked(lock, snap_lsn); !s.ok()) return s;
  // The roll below replaces the live segment: no leader may be writing it.
  while (flushing_) durable_cv_.wait(lock);
  if (dead_) return Status{Errc::io_error, "journal is dead"};
  // Snapshot failures are non-fatal: segments are intact, replay stays
  // complete, the caller just keeps the longer tail.
  NEST_FAILPOINT("journal.snapshot", return Status{err});

  const std::string path =
      options_.dir + "/" + lsn_name("snap-", snap_lsn, ".snp");
  const std::string tmp = path + ".tmp";
  RecordWriter w;
  w.u32(kSnapshotMagic);
  w.u32(kVersion);
  w.u64(snap_lsn);
  w.i64(clock_.now());
  w.u32(crc32c(payload));
  w.str(payload);
  {
    const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) return Status{Errc::io_error, "create " + tmp};
    const std::string& bytes = w.bytes();
    auto s = write_all_fd(fd, bytes.data(), bytes.size());
    if (s.ok() && ::fsync(fd) != 0)
      s = Status{Errc::io_error, "fsync " + tmp};
    ::close(fd);
    if (!s.ok()) {
      // Best-effort cleanup of the half-written temp snapshot.
      (void)::unlink(tmp.c_str());
      return s;
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    return Status{Errc::io_error, "rename " + tmp};
  // Best-effort: an unsynced rename re-runs snapshotting after a crash.
  (void)fsync_path(options_.dir);

  const std::string old_snapshot = snapshot_path_;
  snapshot_path_ = path;
  snapshot_lsn_ = snap_lsn;
  snapshot_time_ = clock_.now();
  records_since_snapshot_ = next_lsn_ - 1 - snap_lsn;

  // Compaction: roll to a fresh segment at the first unwritten LSN, then
  // delete everything the snapshot supersedes: the previous snapshot and
  // every segment whose records all lie at or below snap_lsn (a flush led
  // by another thread may have written later ones into the old segment).
  if (auto s = open_segment_locked(durable_lsn_ + 1); !s.ok()) return s;
  while (segments_.size() > 1 && segments_[1].start_lsn <= snap_lsn + 1) {
    // Best-effort: an undeleted old segment is re-compacted next time.
    (void)::unlink(segments_.front().path.c_str());
    segments_.erase(segments_.begin());
  }
  if (!old_snapshot.empty() && old_snapshot != path) {
    // Best-effort: a leftover old snapshot is superseded, never replayed.
    (void)::unlink(old_snapshot.c_str());
  }
  // Best-effort: deletions re-run on the next compaction if not durable.
  (void)fsync_path(options_.dir);
  return {};
}

JournalStats Journal::stats() const {
  MutexLock lock(mu_);
  JournalStats st;
  st.last_lsn = next_lsn_ - 1;
  st.durable_lsn = durable_lsn_;
  st.snapshot_lsn = snapshot_lsn_;
  st.segment_count = static_cast<int>(segments_.size());
  st.records_since_snapshot = records_since_snapshot_;
  st.snapshot_time = snapshot_time_;
  st.appends = appends_;
  st.commits = commits_;
  st.fsyncs = fsyncs_;
  st.recovered_records = recovered_records_;
  st.recovered_bytes = recovered_bytes_;
  st.recovery_time = recovery_time_;
  return st;
}

bool Journal::dead() const {
  MutexLock lock(mu_);
  return dead_;
}

}  // namespace nest::journal

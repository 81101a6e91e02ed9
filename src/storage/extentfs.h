// ExtentFs: a raw-disk-style VirtualFs backend (paper Section 5: "we plan
// to consider other physical storage layers, such as raw disk, in the near
// future").
//
// The backend manages one flat byte volume (a host file standing in for a
// raw partition) with its own allocator and metadata — the filesystem the
// appliance would run on a disk it owns outright:
//   * space is managed in fixed-size extents with a free list;
//   * each file is a chain of extents recorded in an in-memory inode table;
//   * the directory tree is NeST-level metadata (like owners), not
//     delegated to a host filesystem.
// Metadata is volatile (rebuilt on restart); the volume holds file data
// only. That matches the paper-era intent — a cache/staging appliance, not
// an archival store — and keeps crash semantics explicit.
//
// Locking: one mutex (rank storage_extent) guards the inode table, the
// free list and the volume. StorageManager calls the VirtualFs methods
// under its own lock, but handles run on transfer threads outside it, and
// their writes and truncates allocate and free extents.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "storage/vfs.h"

namespace nest::storage {

class ExtentFs final : public VirtualFs {
 public:
  static constexpr std::int64_t kExtentBytes = 64 * 1024;

  // In-memory volume (tests, RAM-disk deployments).
  ExtentFs(Clock& clock, std::int64_t volume_bytes);

  // Volume backed by a host file (the "raw partition"); created/truncated
  // to `volume_bytes`.
  NEST_NODISCARD
  static Result<std::unique_ptr<ExtentFs>> open_volume(
      Clock& clock, const std::string& volume_path,
      std::int64_t volume_bytes);

  ~ExtentFs() override;

  NEST_NODISCARD Status mkdir(const std::string& path) override;
  NEST_NODISCARD Status rmdir(const std::string& path) override;
  NEST_NODISCARD Status remove(const std::string& path) override;
  NEST_NODISCARD Result<FileStat> stat(const std::string& path) const override;
  NEST_NODISCARD
  Result<std::vector<DirEntry>> list(const std::string& path) const override;
  NEST_NODISCARD
  Status rename(const std::string& from, const std::string& to) override;
  NEST_NODISCARD Result<FileHandlePtr> open(const std::string& path) override;
  NEST_NODISCARD Result<FileHandlePtr> create(const std::string& path) override;
  void set_owner(const std::string& path, const std::string& owner) override;

  std::int64_t total_space() const override;
  std::int64_t used_space() const override;

  // Allocator introspection (tests, resource ads).
  std::int64_t free_extents() const;
  std::int64_t extents_of(const std::string& path) const;

  // Shared read/write path for handles: exactly one of rbuf/wbuf is set.
  // (Public because the handle type lives in the implementation file.)
  NEST_NODISCARD
  Result<std::int64_t> file_io(const std::string& path, std::int64_t offset,
                               char* rbuf, const char* wbuf,
                               std::int64_t len);
  NEST_NODISCARD
  Status file_truncate(const std::string& path, std::int64_t new_size);

  // Zero-copy support: map a logical byte range of `path` onto volume-fd
  // segments (one per extent run, adjacent extents merged), clamped to the
  // inode size. Unsupported on memory-backed volumes — there is no fd to
  // lend, so callers fall back to buffered reads.
  NEST_NODISCARD
  Result<std::vector<SendSegment>> map_for_send(const std::string& path,
                                                std::int64_t offset,
                                                std::int64_t len);

 private:
  struct Inode {
    bool is_dir = false;
    std::int64_t size = 0;           // logical bytes (files)
    std::vector<std::int64_t> extents;  // extent indices, in file order
    Nanos mtime = 0;
    std::string owner;
  };

  NEST_NODISCARD Status check_parent(const std::string& path) const
      REQUIRES(mu_);
  // Grow/shrink a file's extent chain to cover `new_size` bytes.
  NEST_NODISCARD Status reserve(Inode& inode, std::int64_t new_size)
      REQUIRES(mu_);
  void release_extents(Inode& inode) REQUIRES(mu_);

  // Volume I/O at a (extent, offset-in-extent) location. On the fd-backed
  // volume these loop over EINTR and short counts; any residual failure is
  // a real device error and propagates (never silent truncation).
  NEST_NODISCARD
  Status volume_read(std::int64_t extent, std::int64_t offset, char* out,
                     std::int64_t len) const REQUIRES(mu_);
  NEST_NODISCARD
  Status volume_write(std::int64_t extent, std::int64_t offset,
                      const char* data, std::int64_t len) REQUIRES(mu_);

  Clock& clock_;
  mutable Mutex mu_{lockrank::Rank::storage_extent, "extentfs.mu"};
  std::int64_t volume_bytes_ GUARDED_BY(mu_);
  std::int64_t extent_count_ GUARDED_BY(mu_);
  std::set<std::int64_t> free_list_ GUARDED_BY(mu_);
  std::map<std::string, Inode> inodes_ GUARDED_BY(mu_);  // normalized path

  // Backing store: exactly one of these is active. The fd is set once by
  // open_volume, before the filesystem is shared.
  std::vector<char> mem_volume_ GUARDED_BY(mu_);
  int volume_fd_ = -1;
};

}  // namespace nest::storage

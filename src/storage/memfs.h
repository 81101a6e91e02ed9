// In-memory VirtualFs backend. Deterministic and fast; used by unit tests,
// the discrete-event benchmarks, and as a RAM-disk storage element (the
// paper lists "physical memory" among the storage types the storage manager
// is designed to virtualize).
#pragma once

#include <map>
#include <memory>
#include <set>

#include "common/clock.h"
#include "common/mutex.h"
#include "storage/vfs.h"

namespace nest::storage {

class MemFs final : public VirtualFs {
 public:
  explicit MemFs(Clock& clock, std::int64_t capacity_bytes = 1'000'000'000)
      : clock_(clock), capacity_(capacity_bytes) {
    nodes_["/"] = Node{.is_dir = true, .data = nullptr, .mtime = 0, .owner = {}};
  }

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

  std::int64_t total_space() const override { return capacity_; }
  std::int64_t used_space() const override;

  // File payloads carry their own lock: handles returned by open()/create()
  // outlive any caller-side metadata lock and run data ops concurrently
  // with stat/list (the transfer path deliberately runs outside the
  // storage-manager mutex). mtime lives here too so a handle can stamp it
  // safely even after the node was renamed or removed.
  struct FileData {
    mutable SharedMutex mu{lockrank::Rank::storage_file, "memfs.file"};
    std::vector<char> bytes GUARDED_BY(mu);
    Nanos mtime GUARDED_BY(mu) = 0;
  };

 private:
  struct Node {
    bool is_dir = false;
    std::shared_ptr<FileData> data;  // files only
    Nanos mtime = 0;                 // directories only; files use data->mtime
    std::string owner;
  };

  NEST_NODISCARD Status check_parent(const std::string& path) const;

  Clock& clock_;
  std::int64_t capacity_;
  // Keyed by normalized absolute path; map ordering gives cheap listing.
  std::map<std::string, Node> nodes_;
};

}  // namespace nest::storage

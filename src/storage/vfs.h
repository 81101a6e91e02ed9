// Virtual filesystem interface.
//
// The storage manager "virtualizes the physical namespace of underlying
// storage" (paper Section 5): the rest of NeST sees only this interface.
// Backends: MemFs (in-memory, used by tests and the simulator) and LocalFs
// (a sandboxed directory of the host filesystem, the backend the paper's
// implementation used).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"

namespace nest::storage {

struct FileStat {
  std::int64_t size = 0;
  bool is_dir = false;
  Nanos mtime = 0;
  std::string owner;
};

struct DirEntry {
  std::string name;
  bool is_dir = false;
  std::int64_t size = 0;
};

// One kernel-visible byte range backing part of a file: the handle lends
// its fd (borrowed, not owned — valid only while the handle lives) so the
// net layer can sendfile(2) straight from the page cache without a
// user-space copy.
struct SendSegment {
  int fd = -1;
  std::int64_t offset = 0;  // offset within fd, not within the file
  std::int64_t len = 0;
};

// Random-access handle to an open file.
class FileHandle {
 public:
  virtual ~FileHandle() = default;
  NEST_NODISCARD
  virtual Result<std::int64_t> pread(std::span<char> buf,
                                     std::int64_t offset) = 0;
  NEST_NODISCARD
  virtual Result<std::int64_t> pwrite(std::span<const char> buf,
                                      std::int64_t offset) = 0;
  // Size and mtime of the open file from one fstat (or the backend's
  // equivalent). `owner` is namespace metadata and may be left empty.
  NEST_NODISCARD virtual Result<FileStat> stat() const = 0;
  NEST_NODISCARD virtual Status truncate(std::int64_t new_size) = 0;

  // Map [offset, offset+len) of the file onto fd-backed segments for
  // zero-copy send, clamped to the current file size (a sum shorter than
  // `len` means the file is shorter than the caller believed). Backends
  // with no kernel-visible fd (MemFs, memory-backed ExtentFs volumes)
  // return unsupported and callers take the buffered pread path — sim and
  // tests stay deterministic.
  NEST_NODISCARD
  virtual Result<std::vector<SendSegment>> sendfile_map(std::int64_t offset,
                                                        std::int64_t len) {
    (void)offset;
    (void)len;
    return Error{Errc::unsupported, "backend cannot lend an fd"};
  }
};

using FileHandlePtr = std::shared_ptr<FileHandle>;

class VirtualFs {
 public:
  virtual ~VirtualFs() = default;

  NEST_NODISCARD virtual Status mkdir(const std::string& path) = 0;
  // Directory must be empty.
  NEST_NODISCARD virtual Status rmdir(const std::string& path) = 0;
  NEST_NODISCARD virtual Status remove(const std::string& path) = 0;
  NEST_NODISCARD
  virtual Result<FileStat> stat(const std::string& path) const = 0;
  NEST_NODISCARD
  virtual Result<std::vector<DirEntry>> list(const std::string& path)
      const = 0;
  NEST_NODISCARD
  virtual Status rename(const std::string& from, const std::string& to) = 0;

  // Open an existing file for reading.
  NEST_NODISCARD
  virtual Result<FileHandlePtr> open(const std::string& path) = 0;
  // Open a file for writing, creating it if absent; parent must exist.
  // An existing file keeps its bytes: a caller that needs it empty
  // truncates through the handle.
  NEST_NODISCARD
  virtual Result<FileHandlePtr> create(const std::string& path) = 0;

  virtual void set_owner(const std::string& path, const std::string& owner) = 0;

  // Capacity of the underlying store, for resource ads and lot accounting.
  virtual std::int64_t total_space() const = 0;
  virtual std::int64_t used_space() const = 0;
  std::int64_t free_space() const { return total_space() - used_space(); }
};

}  // namespace nest::storage

#include "storage/extentfs.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/string_util.h"
#include "fault/failpoint.h"

namespace nest::storage {

namespace {

// Handle over an ExtentFs inode: translates logical offsets to
// (extent, offset) volume locations.
class ExtentFileHandle final : public FileHandle {
 public:
  ExtentFileHandle(ExtentFs& fs, std::string path)
      : fs_(fs), path_(std::move(path)) {}

  Result<std::int64_t> pread(std::span<char> buf,
                             std::int64_t offset) override;
  Result<std::int64_t> pwrite(std::span<const char> buf,
                              std::int64_t offset) override;
  Result<FileStat> stat() const override;
  Status truncate(std::int64_t new_size) override;
  Result<std::vector<SendSegment>> sendfile_map(std::int64_t offset,
                                                std::int64_t len) override;

 private:
  ExtentFs& fs_;
  std::string path_;
};

}  // namespace

ExtentFs::ExtentFs(Clock& clock, std::int64_t volume_bytes)
    : clock_(clock),
      volume_bytes_(volume_bytes),
      extent_count_(volume_bytes / kExtentBytes) {
  mem_volume_.resize(static_cast<std::size_t>(volume_bytes));
  for (std::int64_t e = 0; e < extent_count_; ++e) free_list_.insert(e);
  inodes_["/"] = Inode{.is_dir = true,
                       .size = 0,
                       .extents = {},
                       .mtime = clock.now(),
                       .owner = {}};
}

Result<std::unique_ptr<ExtentFs>> ExtentFs::open_volume(
    Clock& clock, const std::string& volume_path,
    std::int64_t volume_bytes) {
  const int fd =
      ::open(volume_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Error{Errc::io_error,
                 "open volume " + volume_path + ": " + std::strerror(errno)};
  }
  if (::ftruncate(fd, static_cast<off_t>(volume_bytes)) != 0) {
    ::close(fd);
    return Error{Errc::io_error, "size volume: " + std::string(strerror(errno))};
  }
  auto fs = std::make_unique<ExtentFs>(clock, 0);
  fs->volume_fd_ = fd;
  MutexLock lock(fs->mu_);
  fs->volume_bytes_ = volume_bytes;
  fs->extent_count_ = volume_bytes / kExtentBytes;
  fs->mem_volume_.clear();
  fs->mem_volume_.shrink_to_fit();
  fs->free_list_.clear();
  for (std::int64_t e = 0; e < fs->extent_count_; ++e) {
    fs->free_list_.insert(e);
  }
  lock.unlock();
  return fs;
}

ExtentFs::~ExtentFs() {
  if (volume_fd_ >= 0) ::close(volume_fd_);
}

Status ExtentFs::volume_read(std::int64_t extent, std::int64_t offset,
                             char* out, std::int64_t len) const {
  const std::int64_t pos = extent * kExtentBytes + offset;
  if (volume_fd_ >= 0) {
    std::int64_t done = 0;
    while (done < len) {
      const ssize_t n = ::pread(volume_fd_, out + done,
                                static_cast<std::size_t>(len - done),
                                static_cast<off_t>(pos + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status{Errc::io_error,
                      "volume pread: " + std::string(std::strerror(errno))};
      }
      if (n == 0) {
        // The volume file is pre-sized at open; reading past it means the
        // backing device shrank underneath us.
        return Status{Errc::io_error, "volume pread: unexpected EOF"};
      }
      done += n;
    }
  } else {
    std::memcpy(out, mem_volume_.data() + pos, static_cast<std::size_t>(len));
  }
  return {};
}

Status ExtentFs::volume_write(std::int64_t extent, std::int64_t offset,
                              const char* data, std::int64_t len) {
  const std::int64_t pos = extent * kExtentBytes + offset;
  if (volume_fd_ >= 0) {
    std::int64_t done = 0;
    while (done < len) {
      const ssize_t n = ::pwrite(volume_fd_, data + done,
                                 static_cast<std::size_t>(len - done),
                                 static_cast<off_t>(pos + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status{Errc::io_error,
                      "volume pwrite: " + std::string(std::strerror(errno))};
      }
      done += n;
    }
  } else {
    std::memcpy(mem_volume_.data() + pos, data,
                static_cast<std::size_t>(len));
  }
  return {};
}

Status ExtentFs::check_parent(const std::string& path) const {
  const std::string parent = parent_path(path);
  const auto it = inodes_.find(parent);
  if (it == inodes_.end()) return Status{Errc::not_found, parent};
  if (!it->second.is_dir) return Status{Errc::not_dir, parent};
  return {};
}

Status ExtentFs::reserve(Inode& inode, std::int64_t new_size) {
  const auto needed = (new_size + kExtentBytes - 1) / kExtentBytes;
  const auto have = static_cast<std::int64_t>(inode.extents.size());
  if (needed > have) {
    if (needed - have > static_cast<std::int64_t>(free_list_.size())) {
      return Status{Errc::no_space, "volume full"};
    }
    const std::vector<char> zeros(static_cast<std::size_t>(kExtentBytes));
    for (std::int64_t i = have; i < needed; ++i) {
      const std::int64_t extent = *free_list_.begin();
      free_list_.erase(free_list_.begin());
      // Zero-fill on allocation: holes read as zeros, and a reused extent
      // must never leak another user's deleted data.
      if (auto s = volume_write(extent, 0, zeros.data(), kExtentBytes);
          !s.ok()) {
        free_list_.insert(extent);
        return s;
      }
      inode.extents.push_back(extent);
    }
  } else {
    while (static_cast<std::int64_t>(inode.extents.size()) > needed) {
      free_list_.insert(inode.extents.back());
      inode.extents.pop_back();
    }
  }
  return {};
}

void ExtentFs::release_extents(Inode& inode) {
  for (const std::int64_t e : inode.extents) free_list_.insert(e);
  inode.extents.clear();
  inode.size = 0;
}

Status ExtentFs::mkdir(const std::string& raw) {
  MutexLock lock(mu_);
  const std::string path = normalize_path(raw);
  if (inodes_.count(path)) return Status{Errc::exists, path};
  if (auto s = check_parent(path); !s.ok()) return s;
  inodes_[path] = Inode{.is_dir = true,
                        .size = 0,
                        .extents = {},
                        .mtime = clock_.now(),
                        .owner = {}};
  return {};
}

Status ExtentFs::rmdir(const std::string& raw) {
  MutexLock lock(mu_);
  const std::string path = normalize_path(raw);
  if (path == "/")
    return Status{Errc::permission_denied, "cannot remove root"};
  const auto it = inodes_.find(path);
  if (it == inodes_.end()) return Status{Errc::not_found, path};
  if (!it->second.is_dir) return Status{Errc::not_dir, path};
  const std::string prefix = path + "/";
  const auto child = inodes_.lower_bound(prefix);
  if (child != inodes_.end() &&
      child->first.compare(0, prefix.size(), prefix) == 0) {
    return Status{Errc::busy, "directory not empty"};
  }
  inodes_.erase(it);
  return {};
}

Status ExtentFs::remove(const std::string& raw) {
  MutexLock lock(mu_);
  const std::string path = normalize_path(raw);
  const auto it = inodes_.find(path);
  if (it == inodes_.end()) return Status{Errc::not_found, path};
  if (it->second.is_dir) return Status{Errc::is_dir, path};
  NEST_FAILPOINT("fs.unlink", return Status{err});
  release_extents(it->second);
  inodes_.erase(it);
  return {};
}

Result<FileStat> ExtentFs::stat(const std::string& raw) const {
  MutexLock lock(mu_);
  const auto it = inodes_.find(normalize_path(raw));
  if (it == inodes_.end()) return Error{Errc::not_found, raw};
  FileStat st;
  st.is_dir = it->second.is_dir;
  st.size = it->second.size;
  st.mtime = it->second.mtime;
  st.owner = it->second.owner;
  return st;
}

Result<std::vector<DirEntry>> ExtentFs::list(const std::string& raw) const {
  MutexLock lock(mu_);
  const std::string path = normalize_path(raw);
  const auto it = inodes_.find(path);
  if (it == inodes_.end()) return Error{Errc::not_found, path};
  if (!it->second.is_dir) return Error{Errc::not_dir, path};
  std::vector<DirEntry> out;
  const std::string prefix = path == "/" ? "/" : path + "/";
  for (auto i = inodes_.lower_bound(prefix); i != inodes_.end(); ++i) {
    const std::string& p = i->first;
    if (p.compare(0, prefix.size(), prefix) != 0) break;
    if (p == path) continue;
    if (p.find('/', prefix.size()) != std::string::npos) continue;
    out.push_back(DirEntry{p.substr(prefix.size()), i->second.is_dir,
                           i->second.size});
  }
  return out;
}

Status ExtentFs::rename(const std::string& from_raw,
                        const std::string& to_raw) {
  MutexLock lock(mu_);
  const std::string from = normalize_path(from_raw);
  const std::string to = normalize_path(to_raw);
  const auto it = inodes_.find(from);
  if (it == inodes_.end()) return Status{Errc::not_found, from};
  if (it->second.is_dir) return Status{Errc::unsupported, "dir rename"};
  if (inodes_.count(to)) return Status{Errc::exists, to};
  if (auto s = check_parent(to); !s.ok()) return s;
  inodes_[to] = std::move(it->second);
  inodes_.erase(it);
  return {};
}

Result<FileHandlePtr> ExtentFs::open(const std::string& raw) {
  NEST_FAILPOINT("fs.open", return err);
  const std::string path = normalize_path(raw);
  MutexLock lock(mu_);
  const auto it = inodes_.find(path);
  if (it == inodes_.end()) return Error{Errc::not_found, path};
  if (it->second.is_dir) return Error{Errc::is_dir, path};
  return FileHandlePtr(std::make_shared<ExtentFileHandle>(*this, path));
}

Result<FileHandlePtr> ExtentFs::create(const std::string& raw) {
  NEST_FAILPOINT("fs.create", return err);
  const std::string path = normalize_path(raw);
  MutexLock lock(mu_);
  if (auto s = check_parent(path); !s.ok()) return Error{s.error()};
  const auto [it, inserted] = inodes_.try_emplace(path);
  if (it->second.is_dir) return Error{Errc::is_dir, path};
  if (inserted) it->second.mtime = clock_.now();
  return FileHandlePtr(std::make_shared<ExtentFileHandle>(*this, path));
}

void ExtentFs::set_owner(const std::string& raw, const std::string& owner) {
  MutexLock lock(mu_);
  const auto it = inodes_.find(normalize_path(raw));
  if (it != inodes_.end()) it->second.owner = owner;
}

std::int64_t ExtentFs::total_space() const {
  MutexLock lock(mu_);
  return volume_bytes_;
}

std::int64_t ExtentFs::free_extents() const {
  MutexLock lock(mu_);
  return static_cast<std::int64_t>(free_list_.size());
}

std::int64_t ExtentFs::used_space() const {
  MutexLock lock(mu_);
  return (extent_count_ - static_cast<std::int64_t>(free_list_.size())) *
         kExtentBytes;
}

std::int64_t ExtentFs::extents_of(const std::string& path) const {
  MutexLock lock(mu_);
  const auto it = inodes_.find(normalize_path(path));
  if (it == inodes_.end()) return -1;
  return static_cast<std::int64_t>(it->second.extents.size());
}

// ---------- handle ----------

Result<std::int64_t> ExtentFs::file_io(const std::string& path,
                                       std::int64_t offset, char* rbuf,
                                       const char* wbuf, std::int64_t len) {
  MutexLock lock(mu_);
  auto it = inodes_.find(path);
  if (it == inodes_.end()) return Error{Errc::not_found, path};
  Inode& inode = it->second;
  const bool writing = wbuf != nullptr;
  if (writing) {
    NEST_FAILPOINT("fs.pwrite", return err);
  } else {
    NEST_FAILPOINT("fs.pread", return err);
  }

  if (!writing) {
    if (offset >= inode.size) return std::int64_t{0};
    len = std::min(len, inode.size - offset);
  } else {
    if (auto s = reserve(inode, std::max(inode.size, offset + len));
        !s.ok()) {
      return s.error();
    }
  }

  std::int64_t done = 0;
  while (done < len) {
    const std::int64_t pos = offset + done;
    const std::int64_t idx = pos / kExtentBytes;
    const std::int64_t within = pos % kExtentBytes;
    const std::int64_t chunk = std::min(len - done, kExtentBytes - within);
    const std::int64_t extent = inode.extents[static_cast<std::size_t>(idx)];
    const Status s = writing ? volume_write(extent, within, wbuf + done, chunk)
                             : volume_read(extent, within, rbuf + done, chunk);
    if (!s.ok()) return s.error();
    done += chunk;
  }
  if (writing) {
    inode.size = std::max(inode.size, offset + len);
    inode.mtime = clock_.now();
  }
  return done;
}

Result<std::vector<SendSegment>> ExtentFs::map_for_send(
    const std::string& path, std::int64_t offset, std::int64_t len) {
  if (volume_fd_ < 0)
    return Error{Errc::unsupported, "memory-backed volume has no fd"};
  if (offset < 0 || len < 0)
    return Error{Errc::invalid_argument, "negative map_for_send range"};
  MutexLock lock(mu_);
  const auto it = inodes_.find(path);
  if (it == inodes_.end()) return Error{Errc::not_found, path};
  const Inode& inode = it->second;
  if (inode.is_dir) return Error{Errc::is_dir, path};

  std::vector<SendSegment> out;
  if (offset >= inode.size) return out;
  len = std::min(len, inode.size - offset);
  std::int64_t done = 0;
  while (done < len) {
    const std::int64_t pos = offset + done;
    const std::int64_t idx = pos / kExtentBytes;
    const std::int64_t within = pos % kExtentBytes;
    const std::int64_t chunk = std::min(len - done, kExtentBytes - within);
    const std::int64_t extent = inode.extents[static_cast<std::size_t>(idx)];
    const std::int64_t vol_off = extent * kExtentBytes + within;
    // Merge with the previous segment when the extents happen to be
    // adjacent on the volume — one sendfile() instead of one per extent.
    if (!out.empty() &&
        out.back().offset + out.back().len == vol_off) {
      out.back().len += chunk;
    } else {
      out.push_back(SendSegment{volume_fd_, vol_off, chunk});
    }
    done += chunk;
  }
  return out;
}

Status ExtentFs::file_truncate(const std::string& path,
                               std::int64_t new_size) {
  MutexLock lock(mu_);
  const auto it = inodes_.find(path);
  if (it == inodes_.end()) return Status{Errc::not_found, path};
  if (auto s = reserve(it->second, new_size); !s.ok()) return s;
  it->second.size = new_size;
  it->second.mtime = clock_.now();
  return {};
}

Result<std::int64_t> ExtentFileHandle::pread(std::span<char> buf,
                                             std::int64_t offset) {
  if (offset < 0) return Error{Errc::invalid_argument, "negative offset"};
  return fs_.file_io(path_, offset, buf.data(), nullptr,
                     static_cast<std::int64_t>(buf.size()));
}

Result<std::int64_t> ExtentFileHandle::pwrite(std::span<const char> buf,
                                              std::int64_t offset) {
  if (offset < 0) return Error{Errc::invalid_argument, "negative offset"};
  return fs_.file_io(path_, offset, nullptr, buf.data(),
                     static_cast<std::int64_t>(buf.size()));
}

Result<FileStat> ExtentFileHandle::stat() const { return fs_.stat(path_); }

Status ExtentFileHandle::truncate(std::int64_t new_size) {
  if (new_size < 0) return Status{Errc::invalid_argument, "negative size"};
  return fs_.file_truncate(path_, new_size);
}

Result<std::vector<SendSegment>> ExtentFileHandle::sendfile_map(
    std::int64_t offset, std::int64_t len) {
  return fs_.map_for_send(path_, offset, len);
}

}  // namespace nest::storage

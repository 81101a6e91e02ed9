#include "storage/localfs.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/string_util.h"
#include "fault/failpoint.h"

namespace nest::storage {
namespace {

Errc errno_to_errc(int err) {
  switch (err) {
    case ENOENT: return Errc::not_found;
    case EEXIST: return Errc::exists;
    case ENOTDIR: return Errc::not_dir;
    case EISDIR: return Errc::is_dir;
    case EACCES: case EPERM: return Errc::permission_denied;
    case ENOSPC: case EDQUOT: return Errc::no_space;
    case ENOTEMPTY: return Errc::busy;
    default: return Errc::io_error;
  }
}

Error sys_error(const std::string& what) {
  // One errno read: the unspecified evaluation order of the braced pair
  // would otherwise let strerror() (or the string allocation) clobber it.
  const int err = errno;
  return Error{errno_to_errc(err), what + ": " + std::strerror(err)};
}

// The path stat and the handle's fstat report the same fields the same way.
FileStat stat_of(const struct stat& st) {
  FileStat out;
  out.size = static_cast<std::int64_t>(st.st_size);
  out.is_dir = S_ISDIR(st.st_mode);
  out.mtime = static_cast<Nanos>(st.st_mtime) * kSecond;
  return out;
}

// RAII fd-backed file handle using pread/pwrite.
class LocalFileHandle final : public FileHandle {
 public:
  explicit LocalFileHandle(int fd) : fd_(fd) {}
  ~LocalFileHandle() override {
    if (fd_ >= 0) ::close(fd_);
  }
  LocalFileHandle(const LocalFileHandle&) = delete;
  LocalFileHandle& operator=(const LocalFileHandle&) = delete;

  Result<std::int64_t> pread(std::span<char> buf,
                             std::int64_t offset) override {
    NEST_FAILPOINT("fs.pread", return err);
    // Loop over EINTR and short reads; a short count only ever means EOF.
    std::size_t done = 0;
    while (done < buf.size()) {
      const ssize_t n = ::pread(fd_, buf.data() + done, buf.size() - done,
                                static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return sys_error("pread");
      }
      if (n == 0) break;
      done += static_cast<std::size_t>(n);
    }
    return static_cast<std::int64_t>(done);
  }

  Result<std::int64_t> pwrite(std::span<const char> buf,
                              std::int64_t offset) override {
    NEST_FAILPOINT("fs.pwrite", return err);
    // Loop over EINTR and short writes: a partial pwrite silently
    // truncating a block is exactly the corruption the transfer layer
    // cannot detect on its own.
    std::size_t done = 0;
    while (done < buf.size()) {
      const ssize_t n = ::pwrite(fd_, buf.data() + done, buf.size() - done,
                                 static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return sys_error("pwrite");
      }
      done += static_cast<std::size_t>(n);
    }
    return static_cast<std::int64_t>(done);
  }

  Result<FileStat> stat() const override {
    struct stat st{};
    if (::fstat(fd_, &st) != 0) return sys_error("fstat");
    return stat_of(st);
  }

  Status truncate(std::int64_t new_size) override {
    if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0)
      return Status{sys_error("ftruncate")};
    return {};
  }

  Result<std::vector<SendSegment>> sendfile_map(std::int64_t offset,
                                                std::int64_t len) override {
    if (offset < 0 || len < 0)
      return Error{Errc::invalid_argument, "negative sendfile_map range"};
    struct stat st{};
    if (::fstat(fd_, &st) != 0) return sys_error("fstat");
    const auto file_size = static_cast<std::int64_t>(st.st_size);
    std::vector<SendSegment> out;
    const std::int64_t avail = std::min(len, std::max<std::int64_t>(
                                                 0, file_size - offset));
    if (avail > 0) out.push_back(SendSegment{fd_, offset, avail});
    return out;
  }

 private:
  int fd_;
};

}  // namespace

Result<std::unique_ptr<LocalFs>> LocalFs::open_root(
    const std::string& root, std::int64_t capacity_bytes) {
  struct stat st{};
  if (::stat(root.c_str(), &st) != 0) return sys_error("stat root " + root);
  if (!S_ISDIR(st.st_mode)) return Error{Errc::not_dir, root};
  std::string clean = root;
  while (clean.size() > 1 && clean.back() == '/') clean.pop_back();
  return std::unique_ptr<LocalFs>(
      new LocalFs(std::move(clean), capacity_bytes));
}

std::string LocalFs::host_path(const std::string& virtual_path) const {
  // normalize_path guarantees the result stays under '/', so concatenation
  // cannot escape the sandbox root.
  return root_ + normalize_path(virtual_path);
}

Status LocalFs::mkdir(const std::string& path) {
  if (::mkdir(host_path(path).c_str(), 0755) != 0)
    return Status{sys_error("mkdir " + path)};
  return {};
}

Status LocalFs::rmdir(const std::string& path) {
  if (normalize_path(path) == "/")
    return Status{Errc::permission_denied, "cannot remove root"};
  if (::rmdir(host_path(path).c_str()) != 0)
    return Status{sys_error("rmdir " + path)};
  return {};
}

Status LocalFs::remove(const std::string& path) {
  const std::string hp = host_path(path);
  struct stat st{};
  if (::stat(hp.c_str(), &st) != 0) return Status{sys_error("stat " + path)};
  if (S_ISDIR(st.st_mode)) return Status{Errc::is_dir, path};
  NEST_FAILPOINT("fs.unlink", return Status{err});
  if (::unlink(hp.c_str()) != 0) return Status{sys_error("unlink " + path)};
  owners_.erase(normalize_path(path));
  return {};
}

Result<FileStat> LocalFs::stat(const std::string& path) const {
  struct stat st{};
  if (::stat(host_path(path).c_str(), &st) != 0)
    return sys_error("stat " + path);
  FileStat out = stat_of(st);
  const auto it = owners_.find(normalize_path(path));
  if (it != owners_.end()) out.owner = it->second;
  return out;
}

Result<std::vector<DirEntry>> LocalFs::list(const std::string& path) const {
  DIR* dir = ::opendir(host_path(path).c_str());
  if (dir == nullptr) return sys_error("opendir " + path);
  std::vector<DirEntry> out;
  while (struct dirent* ent = ::readdir(dir)) {
    const std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    DirEntry e;
    e.name = name;
    struct stat st{};
    const std::string child = host_path(join_path(path, name));
    if (::stat(child.c_str(), &st) == 0) {
      e.is_dir = S_ISDIR(st.st_mode);
      e.size = static_cast<std::int64_t>(st.st_size);
    }
    out.push_back(std::move(e));
  }
  ::closedir(dir);
  return out;
}

Status LocalFs::rename(const std::string& from, const std::string& to) {
  if (::rename(host_path(from).c_str(), host_path(to).c_str()) != 0)
    return Status{sys_error("rename")};
  return {};
}

Result<FileHandlePtr> LocalFs::open(const std::string& path) {
  NEST_FAILPOINT("fs.open", return err);
  const int fd = ::open(host_path(path).c_str(), O_RDWR);
  if (fd < 0) {
    // Allow read-only files too.
    const int rfd = ::open(host_path(path).c_str(), O_RDONLY);
    if (rfd < 0) return sys_error("open " + path);
    return FileHandlePtr(std::make_shared<LocalFileHandle>(rfd));
  }
  return FileHandlePtr(std::make_shared<LocalFileHandle>(fd));
}

Result<FileHandlePtr> LocalFs::create(const std::string& path) {
  NEST_FAILPOINT("fs.create", return err);
  const int fd = ::open(host_path(path).c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return sys_error("create " + path);
  return FileHandlePtr(std::make_shared<LocalFileHandle>(fd));
}

void LocalFs::set_owner(const std::string& path, const std::string& owner) {
  owners_[normalize_path(path)] = owner;
}

std::int64_t LocalFs::used_space() const {
  // Recursive walk; adequate for appliance-scale namespaces and called only
  // on the periodic publishing path.
  std::int64_t total = 0;
  std::vector<std::string> stack{"/"};
  while (!stack.empty()) {
    const std::string dir = stack.back();
    stack.pop_back();
    auto entries = list(dir);
    if (!entries.ok()) continue;
    for (const auto& e : *entries) {
      if (e.is_dir) {
        stack.push_back(join_path(dir, e.name));
      } else {
        total += e.size;
      }
    }
  }
  return total;
}

}  // namespace nest::storage

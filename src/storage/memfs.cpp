#include "storage/memfs.h"

#include <algorithm>

#include "common/string_util.h"

namespace nest::storage {

namespace {

class MemFileHandle final : public FileHandle {
 public:
  MemFileHandle(std::shared_ptr<MemFs::FileData> data, Clock& clock)
      : data_(std::move(data)), clock_(clock) {}

  Result<std::int64_t> pread(std::span<char> buf,
                             std::int64_t offset) override {
    if (offset < 0) return Error{Errc::invalid_argument, "negative offset"};
    ReaderLock lk(data_->mu);
    const auto size = static_cast<std::int64_t>(data_->bytes.size());
    if (offset >= size) return std::int64_t{0};
    const std::int64_t n =
        std::min<std::int64_t>(static_cast<std::int64_t>(buf.size()),
                               size - offset);
    std::copy_n(data_->bytes.begin() + offset, n, buf.begin());
    return n;
  }

  Result<std::int64_t> pwrite(std::span<const char> buf,
                              std::int64_t offset) override {
    if (offset < 0) return Error{Errc::invalid_argument, "negative offset"};
    const std::int64_t end =
        offset + static_cast<std::int64_t>(buf.size());
    WriterLock lk(data_->mu);
    if (end > static_cast<std::int64_t>(data_->bytes.size())) {
      data_->bytes.resize(static_cast<std::size_t>(end));
    }
    std::copy(buf.begin(), buf.end(), data_->bytes.begin() + offset);
    data_->mtime = clock_.now();
    return static_cast<std::int64_t>(buf.size());
  }

  Result<FileStat> stat() const override {
    ReaderLock lk(data_->mu);
    FileStat st;
    st.size = static_cast<std::int64_t>(data_->bytes.size());
    st.mtime = data_->mtime;
    return st;
  }

  Status truncate(std::int64_t new_size) override {
    if (new_size < 0) return Status{Errc::invalid_argument, "negative size"};
    WriterLock lk(data_->mu);
    data_->bytes.resize(static_cast<std::size_t>(new_size));
    data_->mtime = clock_.now();
    return {};
  }

 private:
  std::shared_ptr<MemFs::FileData> data_;
  Clock& clock_;
};

// Locked size/mtime reads for the metadata paths (stat/list/used_space),
// which race against live handles otherwise.
std::int64_t file_size(const std::shared_ptr<MemFs::FileData>& d) {
  ReaderLock lk(d->mu);
  return static_cast<std::int64_t>(d->bytes.size());
}
Nanos file_mtime(const std::shared_ptr<MemFs::FileData>& d) {
  ReaderLock lk(d->mu);
  return d->mtime;
}

}  // namespace

Status MemFs::check_parent(const std::string& path) const {
  const std::string parent = parent_path(path);
  const auto it = nodes_.find(parent);
  if (it == nodes_.end()) return Status{Errc::not_found, parent};
  if (!it->second.is_dir) return Status{Errc::not_dir, parent};
  return {};
}

Status MemFs::mkdir(const std::string& raw) {
  const std::string path = normalize_path(raw);
  if (nodes_.count(path)) return Status{Errc::exists, path};
  if (auto s = check_parent(path); !s.ok()) return s;
  nodes_[path] = Node{.is_dir = true, .data = nullptr, .mtime = clock_.now(), .owner = {}};
  return {};
}

Status MemFs::rmdir(const std::string& raw) {
  const std::string path = normalize_path(raw);
  if (path == "/") return Status{Errc::permission_denied, "cannot remove root"};
  const auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status{Errc::not_found, path};
  if (!it->second.is_dir) return Status{Errc::not_dir, path};
  // Any child?
  const std::string prefix = path + "/";
  const auto child = nodes_.lower_bound(prefix);
  if (child != nodes_.end() && child->first.compare(0, prefix.size(), prefix) == 0) {
    return Status{Errc::busy, "directory not empty"};
  }
  nodes_.erase(it);
  return {};
}

Status MemFs::remove(const std::string& raw) {
  const std::string path = normalize_path(raw);
  const auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status{Errc::not_found, path};
  if (it->second.is_dir) return Status{Errc::is_dir, path};
  nodes_.erase(it);
  return {};
}

Result<FileStat> MemFs::stat(const std::string& raw) const {
  const std::string path = normalize_path(raw);
  const auto it = nodes_.find(path);
  if (it == nodes_.end()) return Error{Errc::not_found, path};
  FileStat st;
  st.is_dir = it->second.is_dir;
  st.size = it->second.data ? file_size(it->second.data) : 0;
  st.mtime = it->second.data ? file_mtime(it->second.data) : it->second.mtime;
  st.owner = it->second.owner;
  return st;
}

Result<std::vector<DirEntry>> MemFs::list(const std::string& raw) const {
  const std::string path = normalize_path(raw);
  const auto it = nodes_.find(path);
  if (it == nodes_.end()) return Error{Errc::not_found, path};
  if (!it->second.is_dir) return Error{Errc::not_dir, path};
  std::vector<DirEntry> out;
  const std::string prefix = path == "/" ? "/" : path + "/";
  for (auto i = nodes_.lower_bound(prefix); i != nodes_.end(); ++i) {
    const std::string& p = i->first;
    if (p.compare(0, prefix.size(), prefix) != 0) break;
    // Direct children only.
    if (p.find('/', prefix.size()) != std::string::npos) continue;
    if (p == path) continue;
    DirEntry e;
    e.name = p.substr(prefix.size());
    e.is_dir = i->second.is_dir;
    e.size = i->second.data ? file_size(i->second.data) : 0;
    out.push_back(std::move(e));
  }
  return out;
}

Status MemFs::rename(const std::string& from_raw, const std::string& to_raw) {
  const std::string from = normalize_path(from_raw);
  const std::string to = normalize_path(to_raw);
  const auto it = nodes_.find(from);
  if (it == nodes_.end()) return Status{Errc::not_found, from};
  if (it->second.is_dir) return Status{Errc::unsupported, "dir rename"};
  if (nodes_.count(to)) return Status{Errc::exists, to};
  if (auto s = check_parent(to); !s.ok()) return s;
  nodes_[to] = std::move(it->second);
  nodes_.erase(it);
  return {};
}

Result<FileHandlePtr> MemFs::open(const std::string& raw) {
  const std::string path = normalize_path(raw);
  const auto it = nodes_.find(path);
  if (it == nodes_.end()) return Error{Errc::not_found, path};
  if (it->second.is_dir) return Error{Errc::is_dir, path};
  return FileHandlePtr(
      std::make_shared<MemFileHandle>(it->second.data, clock_));
}

Result<FileHandlePtr> MemFs::create(const std::string& raw) {
  const std::string path = normalize_path(raw);
  if (auto s = check_parent(path); !s.ok()) return Error{s.error()};
  auto& node = nodes_[path];
  if (node.is_dir) return Error{Errc::is_dir, path};
  if (!node.data) {
    node.data = std::make_shared<FileData>();
    WriterLock lk(node.data->mu);
    node.data->mtime = clock_.now();
  }
  return FileHandlePtr(std::make_shared<MemFileHandle>(node.data, clock_));
}

void MemFs::set_owner(const std::string& raw, const std::string& owner) {
  const auto it = nodes_.find(normalize_path(raw));
  if (it != nodes_.end()) it->second.owner = owner;
}

std::int64_t MemFs::used_space() const {
  std::int64_t used = 0;
  for (const auto& [path, node] : nodes_) {
    if (node.data) used += file_size(node.data);
  }
  return used;
}

}  // namespace nest::storage

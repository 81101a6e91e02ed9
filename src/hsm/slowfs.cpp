#include "hsm/slowfs.h"

#include <chrono>
#include <thread>
#include <utility>

namespace nest::hsm {

namespace {

using storage::FileHandle;
using storage::FileHandlePtr;

void sleep_for_bytes(std::int64_t bytes, std::int64_t bw) {
  if (bw <= 0 || bytes <= 0) return;
  const auto ns = (bytes * 1'000'000'000LL) / bw;
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

class SlowHandle final : public FileHandle {
 public:
  SlowHandle(FileHandlePtr inner, SlowFsOptions options)
      : inner_(std::move(inner)), options_(options) {
    if (options_.open_latency_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.open_latency_ms));
    }
  }

  Result<std::int64_t> pread(std::span<char> buf,
                             std::int64_t offset) override {
    auto n = inner_->pread(buf, offset);
    if (n.ok()) sleep_for_bytes(*n, options_.bandwidth_bytes_per_sec);
    return n;
  }
  Result<std::int64_t> pwrite(std::span<const char> buf,
                              std::int64_t offset) override {
    auto n = inner_->pwrite(buf, offset);
    if (n.ok()) sleep_for_bytes(*n, options_.bandwidth_bytes_per_sec);
    return n;
  }
  Result<storage::FileStat> stat() const override { return inner_->stat(); }
  Status truncate(std::int64_t new_size) override {
    return inner_->truncate(new_size);
  }
  // No sendfile_map override: the cold tier must never lend an fd to the
  // zero-copy path (that would bypass the throttle), so the default
  // unsupported answer is the right one.

 private:
  FileHandlePtr inner_;
  SlowFsOptions options_;
};

}  // namespace

SlowFs::SlowFs(std::unique_ptr<storage::VirtualFs> inner,
               SlowFsOptions options)
    : inner_(std::move(inner)), options_(options) {}

Status SlowFs::mkdir(const std::string& path) { return inner_->mkdir(path); }
Status SlowFs::rmdir(const std::string& path) { return inner_->rmdir(path); }
Status SlowFs::remove(const std::string& path) {
  return inner_->remove(path);
}
Result<storage::FileStat> SlowFs::stat(const std::string& path) const {
  return inner_->stat(path);
}
Result<std::vector<storage::DirEntry>> SlowFs::list(
    const std::string& path) const {
  return inner_->list(path);
}
Status SlowFs::rename(const std::string& from, const std::string& to) {
  return inner_->rename(from, to);
}

Result<storage::FileHandlePtr> SlowFs::wrap(
    Result<storage::FileHandlePtr> handle) const {
  if (!handle.ok()) return handle;
  return storage::FileHandlePtr(
      std::make_shared<SlowHandle>(std::move(handle.value()), options_));
}

Result<storage::FileHandlePtr> SlowFs::open(const std::string& path) {
  return wrap(inner_->open(path));
}
Result<storage::FileHandlePtr> SlowFs::create(const std::string& path) {
  return wrap(inner_->create(path));
}
void SlowFs::set_owner(const std::string& path, const std::string& owner) {
  inner_->set_owner(path, owner);
}
std::int64_t SlowFs::total_space() const { return inner_->total_space(); }
std::int64_t SlowFs::used_space() const { return inner_->used_space(); }

}  // namespace nest::hsm

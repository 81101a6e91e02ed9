#include "transfer/core.h"

#include <algorithm>

#include "obs/stats.h"

namespace nest::transfer {

TransferCore::TransferCore(TransferManager& tm, int slots)
    : tm_(tm), free_(slots) {}

TransferRequest* TransferCore::create_request(const std::string& protocol,
                                              Direction dir,
                                              const std::string& path,
                                              std::int64_t size,
                                              const std::string& user) {
  TransferRequest* r;
  {
    MutexLock lock(mu_);
    r = tm_.create_request(protocol, dir, path, size, user);
    r->class_bytes = &class_bytes_.try_emplace(protocol, 0).first->second;
  }
  auto& stats = obs::Stats::global();
  (r->cached_fraction >= 0.99 ? stats.cache_hot : stats.cache_cold)
      .fetch_add(1, std::memory_order_relaxed);
  if (size > 0) {
    stats.bytes_queued.fetch_add(size, std::memory_order_relaxed);
  }
  // Outside mu_: the admission lock ranks below it.
  if (admission_ != nullptr) admission_->on_create(protocol, user);
  return r;
}

void TransferCore::charge(TransferRequest* r, std::int64_t bytes) {
  // Shrink the queued-bytes gauge by this quantum's progress against the
  // declared size (open-ended transfers, size 0, never entered it).
  if (r->size > 0 && bytes > 0) {
    const std::int64_t before = std::min(r->done, r->size);
    const std::int64_t after = std::min(r->done + bytes, r->size);
    if (after > before) {
      obs::Stats::global().bytes_queued.fetch_sub(after - before,
                                                  std::memory_order_relaxed);
    }
  }
  r->class_bytes->fetch_add(bytes, std::memory_order_relaxed);
  MutexLock lock(mu_);
  tm_.charge(r, bytes);
}

void TransferCore::complete(TransferRequest* r) {
  // Return the admission slot (and feed the completion-rate estimator)
  // before mu_: the admission lock ranks below it.
  if (admission_ != nullptr) admission_->on_complete(r->protocol, r->user);
  // Bytes that were admitted but never moved (failed/short transfer)
  // leave the queued-bytes gauge here; read r->done before the registry
  // frees the request.
  if (r->size > 0) {
    const std::int64_t left = r->size - std::min(r->done, r->size);
    if (left > 0) {
      obs::Stats::global().bytes_queued.fetch_sub(left,
                                                  std::memory_order_relaxed);
    }
  }
  MutexLock lock(mu_);
  tm_.complete(r);
}

void TransferCore::observe_remove(const std::string& path) {
  MutexLock lock(mu_);
  tm_.cache_model().observe_remove(path);
}

std::int64_t TransferCore::cache_tracked_pages() const {
  MutexLock lock(mu_);
  return tm_.cache_model().tracked_pages();
}

std::map<std::string, std::int64_t> TransferCore::class_bytes() const {
  std::map<std::string, std::int64_t> out;
  MutexLock lock(mu_);
  for (const auto& [cls, bytes] : class_bytes_) {
    out.emplace(cls, bytes.load(std::memory_order_relaxed));
  }
  return out;
}

void TransferCore::acquire(TransferRequest* r) {
  std::atomic_ref<std::uint32_t> grant(r->grant_word);
  grant.store(0, std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    tm_.enqueue(r);
    grant_locked();
  }
  std::uint32_t seen = grant.load(std::memory_order_acquire);
  if (seen != 0) {
    // Granted by our own call: zero hold, and no clock reads on the
    // uncontended fast path.
    obs::Stats::global().sched_hold.record(0);
    return;
  }
  const Nanos wait_start = tm_.clock().now();
  while (seen == 0) {
    grant.wait(0, std::memory_order_acquire);
    seen = grant.load(std::memory_order_acquire);
  }
  obs::Stats::global().sched_hold.record(tm_.clock().now() - wait_start);
}

void TransferCore::release() {
  MutexLock lock(mu_);
  ++free_;
  grant_locked();
}

void TransferCore::grant_locked() {
  while (free_ > 0) {
    TransferRequest* r = tm_.next();
    if (r == nullptr) break;  // empty or non-work-conserving hold
    --free_;
    std::atomic_ref<std::uint32_t> grant(r->grant_word);
    grant.store(1, std::memory_order_release);
    grant.notify_one();
  }
}

void TransferCore::submit(TransferRequest* r) {
  MutexLock lock(mu_);
  tm_.enqueue(r);
}

TransferRequest* TransferCore::try_grant() {
  MutexLock lock(mu_);
  if (free_ <= 0) return nullptr;
  TransferRequest* r = tm_.next();
  if (r != nullptr) --free_;
  return r;
}

void TransferCore::release_slot() {
  MutexLock lock(mu_);
  ++free_;
}

Nanos TransferCore::hold_until() const {
  MutexLock lock(mu_);
  return tm_.hold_until();
}

int TransferCore::free_slots() const {
  MutexLock lock(mu_);
  return free_;
}

}  // namespace nest::transfer

#include "transfer/core.h"

#include <algorithm>
#include <functional>

#include "obs/stats.h"

namespace nest::transfer {

TransferCore::TransferCore(TransferManager& tm, int slots)
    : tm_(tm), free_(slots) {
  drain_buf_.reserve(64);
}

TransferCore::Shard& TransferCore::shard_for(const TransferRequest* r) {
  return shards_[std::hash<std::string>()(r->protocol) %
                 static_cast<std::size_t>(kShards)];
}

void TransferCore::push_op(TransferRequest* r, OpKind kind,
                           std::int64_t bytes) {
  Op op{seq_.fetch_add(1, std::memory_order_relaxed), r, kind, bytes};
  if (kind == OpKind::submit) r->submit_seq = op.seq;
  Shard& s = shard_for(r);
  MutexLock lock(s.mu);
  s.ops.push_back(op);
}

void TransferCore::drain_locked() {
  drain_buf_.clear();
  for (Shard& s : shards_) {
    MutexLock lock(s.mu);
    if (s.ops.empty()) continue;
    drain_buf_.insert(drain_buf_.end(), s.ops.begin(), s.ops.end());
    s.ops.clear();
  }
  if (drain_buf_.empty()) return;
  // Each shard is FIFO per submitting thread; the global stamp restores
  // one arrival order across shards, so single-threaded substrates see
  // the exact op sequence they issued (policy traces stay deterministic).
  std::sort(drain_buf_.begin(), drain_buf_.end(),
            [](const Op& a, const Op& b) { return a.seq < b.seq; });
  for (const Op& op : drain_buf_) {
    if (op.kind == OpKind::submit) {
      tm_.enqueue(op.r);
    } else {
      tm_.scheduler().charge(op.r, op.bytes);
    }
  }
}

TransferRequest* TransferCore::create_request(const std::string& protocol,
                                              Direction dir,
                                              const std::string& path,
                                              std::int64_t size,
                                              const std::string& user) {
  TransferRequest* r;
  {
    // Registry insert + cache-model residency probe happen inside
    // TransferManager::create_request; hold both domains, acquired in
    // rank order (registry, then cache).
    MutexLock reg(reg_mu_);
    MutexLock cache(cache_mu_);
    r = tm_.create_request(protocol, dir, path, size, user);
    r->class_bytes = &class_bytes_.try_emplace(protocol, 0).first->second;
  }
  auto& stats = obs::Stats::global();
  (r->cached_fraction >= 0.99 ? stats.cache_hot : stats.cache_cold)
      .fetch_add(1, std::memory_order_relaxed);
  if (size > 0) {
    stats.bytes_queued.fetch_add(size, std::memory_order_relaxed);
  }
  // Outside reg/cache locks: the admission lock ranks below them.
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
  r->done += bytes;  // owner-thread field
  r->class_bytes->fetch_add(bytes, std::memory_order_relaxed);
  tm_.account_bytes(bytes);
  {
    MutexLock lock(cache_mu_);
    tm_.cache_model().observe_access(r->path, r->done - bytes, bytes);
  }
  push_op(r, OpKind::charge, bytes);
}

void TransferCore::complete(TransferRequest* r) {
  // Return the admission slot (and feed the completion-rate estimator)
  // before any transfer lock: the admission lock ranks below them all.
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
  // Flush so no shard still holds an op referencing `r` after the
  // registry frees it. Holding sched_mu_ here also fences the last grant:
  // a pump stores/notifies the grant word only under sched_mu_, so it can
  // never touch `r` after this complete() starts erasing it.
  {
    MutexLock lock(sched_mu_);
    drain_locked();
  }
  MutexLock reg(reg_mu_);
  tm_.complete(r);
}

std::map<std::string, std::int64_t> TransferCore::class_bytes() const {
  std::map<std::string, std::int64_t> out;
  MutexLock reg(reg_mu_);
  for (const auto& [cls, bytes] : class_bytes_) {
    out.emplace(cls, bytes.load(std::memory_order_relaxed));
  }
  return out;
}

void TransferCore::submit(TransferRequest* r) {
  push_op(r, OpKind::submit, 0);
}

void TransferCore::acquire(TransferRequest* r) {
  std::atomic_ref<std::uint32_t> grant(r->grant_word);
  grant.store(0, std::memory_order_relaxed);
  submit(r);
  pump();
  std::uint32_t seen = grant.load(std::memory_order_acquire);
  if (seen != 0) {
    // Granted by our own pump: zero hold, and no clock reads on the
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
  free_.fetch_add(1, std::memory_order_release);
  pump();
}

TransferRequest* TransferCore::try_grant() {
  MutexLock lock(sched_mu_);
  drain_locked();
  if (free_.load(std::memory_order_relaxed) <= 0) return nullptr;
  TransferRequest* r = tm_.next();
  if (r != nullptr) free_.fetch_sub(1, std::memory_order_relaxed);
  return r;
}

void TransferCore::pump() {
  // Elect one pumper: the thread whose increment finds the counter at
  // zero drains on behalf of every caller that piles on while it works,
  // so acquire/release never block behind the scheduler lock.
  if (pump_pending_.fetch_add(1, std::memory_order_acq_rel) != 0) return;
  std::int64_t handled = 0;
  do {
    handled = pump_pending_.load(std::memory_order_acquire);
    {
      MutexLock lock(sched_mu_);
      drain_locked();
      while (free_.load(std::memory_order_relaxed) > 0) {
        TransferRequest* r = tm_.next();
        if (r == nullptr) break;  // empty or non-work-conserving hold
        free_.fetch_sub(1, std::memory_order_relaxed);
        std::atomic_ref<std::uint32_t> grant(r->grant_word);
        grant.store(1, std::memory_order_release);
        grant.notify_one();
      }
    }
  } while (pump_pending_.fetch_sub(handled, std::memory_order_acq_rel) !=
           handled);
}

}  // namespace nest::transfer

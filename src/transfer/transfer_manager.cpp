#include "transfer/transfer_manager.h"

#include <cassert>

namespace nest::transfer {

TransferManager::TransferManager(Clock& clock, Options options)
    : clock_(clock),
      options_(options),
      scheduler_(make_scheduler(options.scheduler, clock)),
      selector_(options.adapt),
      cache_model_(options.cache_model_bytes, options.cache_model_page) {
  assert(scheduler_ != nullptr && "unknown scheduler kind");
}

TransferRequest* TransferManager::create_request(const std::string& protocol,
                                                 Direction dir,
                                                 const std::string& path,
                                                 std::int64_t size,
                                                 const std::string& user) {
  auto req = std::make_unique<TransferRequest>();
  req->id = next_id_++;
  req->protocol = protocol;
  req->user = user;
  req->dir = dir;
  req->path = path;
  req->size = size;
  req->arrival = clock_.now();
  req->cached_fraction = cache_model_.resident_fraction(path, size);
  TransferRequest* raw = req.get();
  requests_[raw->id] = std::move(req);
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  return raw;
}

Nanos TransferManager::hold_until() const {
  const auto* s = dynamic_cast<const StrideScheduler*>(scheduler_.get());
  return s ? s->hold_until() : 0;
}

void TransferManager::charge(TransferRequest* r, std::int64_t bytes) {
  r->done += bytes;
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  scheduler_->charge(r, bytes);
  cache_model_.observe_access(r->path, r->done - bytes, bytes);
}

void TransferManager::complete(TransferRequest* r) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  requests_.erase(r->id);
}

ConcurrencyModel TransferManager::pick_model() {
  return options_.adaptive ? selector_.pick() : options_.fixed_model;
}

void TransferManager::report_model(ConcurrencyModel m, double metric_value) {
  if (options_.adaptive) selector_.report(m, metric_value);
}

StrideScheduler* TransferManager::stride() {
  return dynamic_cast<StrideScheduler*>(scheduler_.get());
}

}  // namespace nest::transfer

#include "simnest/simnest.h"

#include <algorithm>
#include <cassert>

namespace nest::simnest {

using sim::Co;
using sim::SemGuard;
using transfer::ConcurrencyModel;
using transfer::Direction;
using transfer::TransferRequest;

SimNestConfig jbos_config() {
  SimNestConfig cfg;
  cfg.tm.scheduler = "fifo";
  cfg.tm.adaptive = false;
  cfg.tm.fixed_model = ConcurrencyModel::threads;
  cfg.dispatch_overhead = 0;  // native server: no virtual protocol layer
  return cfg;
}

SimNest::SimNest(SimHost& host, SimNestConfig config)
    : host_(host),
      config_(config),
      tm_(host.engine().clock(), config.tm),
      core_(tm_, config.service_slots),
      admission_(host.engine().clock(), config.admission),
      gate_(host.engine(), core_),
      event_loop_(host.engine(), 1),
      disk_stage_(host.engine(), 2),
      net_stage_(host.engine(), 2) {
  core_.set_admission(&admission_);
}

void SimNest::ServiceGate::schedule_pump() {
  if (pump_pending_) return;
  pump_pending_ = true;
  eng_.schedule(0, [this] {
    pump_pending_ = false;
    pump();
  });
}

void SimNest::ServiceGate::pump() {
  while (core_.free_slots() > 0) {
    TransferRequest* r = core_.try_grant();
    if (r == nullptr) {
      // Non-work-conserving hold: retry when the hold expires.
      const Nanos hold = core_.hold_until();
      if (hold > eng_.now() && !waiters_.empty()) {
        eng_.schedule_at(hold, [this] { schedule_pump(); });
      }
      break;
    }
    const auto it = waiters_.find(r);
    assert(it != waiters_.end());
    const std::coroutine_handle<> h = it->second;
    waiters_.erase(it);
    h.resume();
  }
}

void SimNest::add_file(const std::string& path, std::int64_t size,
                       bool cached) {
  FileInfo info{next_file_id_++, size};
  files_[path] = info;
  if (cached) {
    host_.store().preload(info.id, size);
    // Prime the gray-box model to mirror reality.
    tm_.cache_model().observe_access(path, 0, size);
  }
}

void SimNest::evict(const std::string& path) {
  const auto it = files_.find(path);
  if (it == files_.end()) return;
  host_.store().evict_file(it->second.id, it->second.size);
}

std::int64_t SimNest::file_size(const std::string& path) const {
  const auto it = files_.find(path);
  return it == files_.end() ? -1 : it->second.size;
}

void SimNest::attach_cold_tier(const sim::PlatformProfile& profile) {
  cold_store_ = std::make_unique<sim::SimStore>(host_.engine(), profile);
}

void SimNest::add_cold_file(const std::string& path, std::int64_t size) {
  assert(cold_store_ != nullptr);
  FileInfo info{next_file_id_++, size};
  files_[path] = info;
  cold_files_.insert(path);
}

Co<bool> SimNest::migrate_file(std::string path) {
  const auto it = files_.find(path);
  if (cold_store_ == nullptr || it == files_.end() ||
      cold_files_.count(path)) {
    co_return false;
  }
  const FileInfo file = it->second;
  TransferRequest* req =
      core_.create_request("migrate", Direction::read, path, file.size);
  for (std::int64_t off = 0; off < file.size; off += config_.hsm_block) {
    const std::int64_t len = std::min(config_.hsm_block, file.size - off);
    co_await gate_.acquire(req);
    co_await host_.store().read(file.id, off, len);
    co_await cold_store_->write(file.id, off, len);
    core_.charge(req, len);
    gate_.release();
  }
  // The hot copy may go only once the cold copy is on media.
  co_await cold_store_->sync();
  core_.complete(req);
  cold_files_.insert(path);
  host_.store().evict_file(file.id, file.size);
  ++hsm_.migrations;
  hsm_.bytes_migrated += file.size;
  co_return true;
}

Co<void> SimNest::ensure_hot(std::string path) {
  if (cold_store_ == nullptr || !cold_files_.count(path)) co_return;
  const auto fit = recall_flights_.find(path);
  if (fit != recall_flights_.end()) {
    ++hsm_.recall_joins;
    co_await fit->second->wait();
    co_return;
  }
  auto flight = std::make_unique<sim::SimEvent>(host_.engine());
  sim::SimEvent* ev = flight.get();
  recall_flights_[path] = std::move(flight);
  const FileInfo file = files_[path];
  TransferRequest* req =
      core_.create_request("recall", Direction::write, path, file.size);
  for (std::int64_t off = 0; off < file.size; off += config_.hsm_block) {
    const std::int64_t len = std::min(config_.hsm_block, file.size - off);
    co_await gate_.acquire(req);
    co_await cold_store_->read(file.id, off, len);
    co_await host_.store().write(file.id, off, len);
    core_.charge(req, len);
    gate_.release();
  }
  core_.complete(req);
  cold_files_.erase(path);
  ++hsm_.recalls;
  hsm_.bytes_recalled += file.size;
  // Erase the flight before waking joiners: a read arriving after this
  // instant sees a hot file, not a phantom in-flight recall.
  const auto node = recall_flights_.extract(path);
  ev->set();
}

Nanos SimNest::model_block_cost(ConcurrencyModel model) const {
  const auto& p = host_.platform();
  switch (model) {
    case ConcurrencyModel::threads: return p.thread_ctx_switch + p.syscall;
    case ConcurrencyModel::processes:
      return p.process_ctx_switch + p.syscall;
    case ConcurrencyModel::events: return p.event_dispatch + p.syscall;
    case ConcurrencyModel::staged:
      // Two stage handoffs (enqueue + dispatch) per block, no per-request
      // thread costs.
      return 2 * p.event_dispatch + p.syscall;
  }
  return 0;
}

Nanos SimNest::model_setup_cost(ConcurrencyModel model) const {
  const auto& p = host_.platform();
  switch (model) {
    case ConcurrencyModel::threads: return p.thread_create;
    case ConcurrencyModel::processes: return p.process_fork;
    case ConcurrencyModel::events: return 0;  // handler registration only
    case ConcurrencyModel::staged: return 0;  // stages pre-exist
  }
  return 0;
}

void SimNest::report_completion(ConcurrencyModel model, Nanos latency,
                                std::int64_t bytes) {
  if (tm_.options().adapt.metric == transfer::AdaptMetric::latency) {
    tm_.report_model(model, static_cast<double>(latency));
  } else {
    const double secs = to_seconds(latency);
    tm_.report_model(model,
                     secs > 0 ? static_cast<double>(bytes) / secs : 0.0);
  }
}

Co<void> SimNest::serve_read_block(const ProtocolBehavior& proto,
                                   const FileInfo& file, std::int64_t offset,
                                   std::int64_t len, ConcurrencyModel model,
                                   Nanos setup_cost) {
  const Nanos cpu = model_block_cost(model) + proto.per_block_cpu;
  const Nanos per_byte_cpu =
      proto.per_byte_cpu_bw > 0
          ? from_seconds(static_cast<double>(len) / proto.per_byte_cpu_bw)
          : 0;
  if (model == ConcurrencyModel::events) {
    // The single event loop performs dispatch, the (blocking!) disk read,
    // and the protocol processing. While it does, every other event-model
    // request stalls — the Flash-paper weakness the adaptive design works
    // around. The socket send itself is non-blocking and proceeds outside
    // the loop.
    co_await event_loop_.acquire();
    {
      SemGuard loop(event_loop_);
      co_await host_.cpu_work(setup_cost + cpu + per_byte_cpu);
      co_await host_.store().read(file.id, offset, len);
    }
    co_await host_.link().transfer(len);
  } else if (model == ConcurrencyModel::staged) {
    // SEDA-style: cache-resident blocks bypass the disk stage entirely
    // (the admission stage routes by residency), so hits never queue
    // behind misses; only misses occupy a disk-stage worker. The network
    // stage pool performs the sends.
    if (host_.store().range_cached(file.id, offset, len)) {
      co_await host_.cpu_work(setup_cost + cpu + per_byte_cpu);
      co_await host_.store().read(file.id, offset, len);
    } else {
      co_await disk_stage_.acquire();
      SemGuard stage(disk_stage_);
      co_await host_.cpu_work(setup_cost + cpu + per_byte_cpu);
      co_await host_.store().read(file.id, offset, len);
    }
    co_await net_stage_.acquire();
    {
      SemGuard stage(net_stage_);
      co_await host_.link().transfer(len);
    }
  } else {
    // Threads/processes: I/O overlaps across requests; CPU processing
    // still serializes on the host's single processor.
    co_await host_.cpu_work(setup_cost + cpu + per_byte_cpu);
    co_await host_.store().read(file.id, offset, len);
    co_await host_.link().transfer(len);
  }
  if (proto.per_block_ack) co_await host_.link().round_trip(64);
}

Co<void> SimNest::serve_write_block(const ProtocolBehavior& proto,
                                    const FileInfo& file, std::int64_t offset,
                                    std::int64_t len, ConcurrencyModel model,
                                    Nanos setup_cost) {
  const Nanos cpu = model_block_cost(model) + proto.per_block_cpu;
  // Bytes arrive over the link first, then pass through the OS write path
  // (cache insert, possible writeback throttling, quota charges).
  const Nanos per_byte_cpu =
      proto.per_byte_cpu_bw > 0
          ? from_seconds(static_cast<double>(len) / proto.per_byte_cpu_bw)
          : 0;
  co_await host_.link().transfer(len);
  if (model == ConcurrencyModel::events) {
    co_await event_loop_.acquire();
    SemGuard loop(event_loop_);
    co_await host_.cpu_work(setup_cost + cpu + per_byte_cpu);
    co_await host_.store().write(file.id, offset, len);
  } else if (model == ConcurrencyModel::staged) {
    co_await disk_stage_.acquire();
    SemGuard stage(disk_stage_);
    co_await host_.cpu_work(setup_cost + cpu + per_byte_cpu);
    co_await host_.store().write(file.id, offset, len);
  } else {
    co_await host_.cpu_work(setup_cost + cpu + per_byte_cpu);
    co_await host_.store().write(file.id, offset, len);
  }
  if (proto.per_block_ack) co_await host_.link().round_trip(64);
}

Co<bool> SimNest::client_get(ProtocolBehavior proto, std::string path,
                             std::string user) {
  auto& eng = host_.engine();
  const auto it = files_.find(path);
  assert(it != files_.end());
  const FileInfo file = it->second;

  // Session setup (includes authentication round trips) + the GET request.
  for (int i = 0; i < proto.connect_rtts; ++i) {
    co_await host_.link().round_trip(256);
  }
  co_await host_.link().round_trip(256);

  // The dispatcher consults the shedder before registering the transfer;
  // a shed request has paid the connection setup but moves no data (the
  // busy reply rides the request round trip already awaited above).
  if (admission_.admit(proto.name, user) !=
      transfer::AdmissionController::Verdict::admitted) {
    co_return false;
  }

  // Cold data must come back through the staged-recall path first; every
  // concurrent reader of the same file shares one recall (fan-in).
  if (cold_store_ && cold_files_.count(path)) co_await ensure_hot(path);

  TransferRequest* req = core_.create_request(proto.name, Direction::read,
                                              path, file.size, user);
  const ConcurrencyModel model = tm_.pick_model();
  Nanos setup = model_setup_cost(model) + config_.dispatch_overhead;

  bool first = true;
  for (std::int64_t off = 0; off < file.size; off += proto.block) {
    const std::int64_t len = std::min(proto.block, file.size - off);
    if (proto.sync_per_block && !first) {
      // Block protocols: the client requests each block in its own RPC.
      co_await host_.link().round_trip(128);
    }
    co_await gate_.acquire(req);
    co_await serve_read_block(proto, file, off, len, model, setup);
    core_.charge(req, len);  // before release: grants must see fresh passes
    gate_.release();
    setup = 0;
    first = false;
  }
  const Nanos latency = eng.now() - req->arrival;
  report_completion(model, latency, file.size);
  core_.complete(req);
  co_return true;
}

Co<bool> SimNest::client_put(ProtocolBehavior proto, std::string path,
                             std::int64_t size, std::string user) {
  auto& eng = host_.engine();

  for (int i = 0; i < proto.connect_rtts; ++i) {
    co_await host_.link().round_trip(256);
  }
  co_await host_.link().round_trip(256);  // PUT request + approval

  if (admission_.admit(proto.name, user) !=
      transfer::AdmissionController::Verdict::admitted) {
    co_return false;
  }

  // The file springs into existence only once the store is admitted.
  if (!files_.count(path)) files_[path] = FileInfo{next_file_id_++, size};
  files_[path].size = size;
  const FileInfo file = files_[path];

  TransferRequest* req = core_.create_request(proto.name, Direction::write,
                                              path, size, user);
  const ConcurrencyModel model = tm_.pick_model();
  Nanos setup = model_setup_cost(model) + config_.dispatch_overhead;

  bool first = true;
  for (std::int64_t off = 0; off < size; off += proto.block) {
    const std::int64_t len = std::min(proto.block, size - off);
    if (proto.sync_per_block && !first) {
      co_await host_.link().round_trip(128);
    }
    co_await gate_.acquire(req);
    co_await serve_write_block(proto, file, off, len, model, setup);
    core_.charge(req, len);
    gate_.release();
    setup = 0;
    first = false;
  }
  const Nanos latency = eng.now() - req->arrival;
  report_completion(model, latency, size);
  core_.complete(req);
  co_return true;
}

}  // namespace nest::simnest

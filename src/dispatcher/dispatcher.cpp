#include "dispatcher/dispatcher.h"

#include <sstream>

#include "common/log.h"
#include "common/units.h"
#include "fault/failpoint.h"
#include "obs/trace.h"

namespace nest::dispatcher {

using protocol::NestOp;
using protocol::NestRequest;

Dispatcher::Dispatcher(Clock& clock, storage::StorageManager& storage,
                       transfer::TransferManager& tm)
    : Dispatcher(clock, storage, tm, Options{}) {}

Dispatcher::Dispatcher(Clock& clock, storage::StorageManager& storage,
                       transfer::TransferManager& tm, Options options)
    : clock_(clock),
      storage_(storage),
      tm_(tm),
      options_(std::move(options)),
      core_(tm, options_.transfer_slots),
      admission_(clock, options_.admission),
      started_(clock.now()) {
  core_.set_admission(&admission_);
}

Dispatcher::~Dispatcher() { stop_publishing(); }

Reply Dispatcher::execute(const NestRequest& req) {
  obs::Span span(obs::Layer::dispatcher, protocol::op_name(req.op));
  const Nanos start = clock_.now();
  Reply r = execute_impl(req);
  auto& stats = obs::Stats::global();
  stats.requests.fetch_add(1, std::memory_order_relaxed);
  if (!r.status.ok()) stats.errors.fetch_add(1, std::memory_order_relaxed);
  const Nanos elapsed = clock_.now() - start;
  stats.request_latency(req.protocol).record(elapsed);
  stats.request_all.record(elapsed);
  return r;
}

Reply Dispatcher::execute_impl(const NestRequest& req) {
  switch (req.op) {
    case NestOp::mkdir:
      return Reply{storage_.mkdir(req.principal, req.path), {}, 0};
    case NestOp::rmdir:
      return Reply{storage_.rmdir(req.principal, req.path), {}, 0};
    case NestOp::unlink:
      return Reply{storage_.remove(req.principal, req.path), {}, 0};
    case NestOp::stat: {
      auto st = storage_.stat(req.principal, req.path);
      if (!st.ok()) return Reply::fail(Status{st.error()});
      std::ostringstream os;
      os << (st->is_dir ? "dir" : "file") << " " << st->size << " "
         << st->owner;
      return Reply::ok(os.str(), st->size);
    }
    case NestOp::list: {
      auto entries = storage_.list(req.principal, req.path);
      if (!entries.ok()) return Reply::fail(Status{entries.error()});
      std::ostringstream os;
      for (const auto& e : *entries) {
        os << (e.is_dir ? "d " : "f ") << e.size << " " << e.name << "\n";
      }
      return Reply::ok(os.str());
    }
    case NestOp::rename:
      return Reply{storage_.rename(req.principal, req.path, req.path2),
                   {},
                   0};
    case NestOp::lot_create: {
      auto id = storage_.lot_create(req.principal, req.lot_capacity,
                                    req.lot_duration, req.group_lot);
      if (!id.ok()) return Reply::fail(Status{id.error()});
      return Reply::ok(std::to_string(*id), static_cast<std::int64_t>(*id));
    }
    case NestOp::lot_renew:
      return Reply{
          storage_.lot_renew(req.principal, req.lot_id, req.lot_duration),
          {},
          0};
    case NestOp::lot_terminate:
      return Reply{storage_.lot_terminate(req.principal, req.lot_id), {}, 0};
    case NestOp::lot_set_replicas:
      return Reply{storage_.lot_set_replicas(req.principal, req.lot_id,
                                             req.lot_replicas),
                   {},
                   0};
    case NestOp::lot_pin:
      // lot_replicas carries the 0|1 pin flag on the wire.
      return Reply{storage_.lot_set_pin(req.principal, req.lot_id,
                                        req.lot_replicas != 0),
                   {},
                   0};
    case NestOp::hsm_status: {
      auto tier = storage_.hsm_tier(req.principal, req.path);
      if (!tier.ok()) return Reply::fail(Status{tier.error()});
      return Reply::ok(hsm::tier_name(*tier),
                       static_cast<std::int64_t>(*tier));
    }
    case NestOp::hsm_recall: {
      if (!hsm_) return Reply::fail(Status{Errc::unsupported, "no cold tier"});
      return Reply{hsm_->recall(req.principal, req.path), {}, 0};
    }
    case NestOp::hsm_migrate: {
      if (!hsm_) return Reply::fail(Status{Errc::unsupported, "no cold tier"});
      return Reply{hsm_->migrate(req.principal, req.path), {}, 0};
    }
    case NestOp::lot_query: {
      auto lot = storage_.lot_query(req.principal, req.lot_id);
      if (!lot.ok()) return Reply::fail(Status{lot.error()});
      std::ostringstream os;
      os << "owner=" << lot->owner << " capacity=" << lot->capacity
         << " used=" << lot->used
         << " best_effort=" << (lot->best_effort ? 1 : 0)
         << " files=" << lot->files.size()
         << " replicas=" << lot->replicas;
      return Reply::ok(os.str(), lot->capacity - lot->used);
    }
    case NestOp::lot_list: {
      std::ostringstream os;
      for (const auto& lot : storage_.lot_list(req.principal)) {
        os << "id=" << lot.id << " owner=" << lot.owner
           << (lot.group_lot ? " group" : "") << " capacity=" << lot.capacity
           << " used=" << lot.used
           << " best_effort=" << (lot.best_effort ? 1 : 0)
           << " files=" << lot.files.size()
           << " replicas=" << lot.replicas << "\n";
      }
      return Reply::ok(os.str());
    }
    case NestOp::journal_stat: {
      const auto stats = storage_.journal_stats();
      if (!stats) return Reply::fail(Status{Errc::unsupported, "no journal"});
      std::ostringstream os;
      os << "last_lsn=" << stats->last_lsn
         << " durable_lsn=" << stats->durable_lsn
         << " snapshot_lsn=" << stats->snapshot_lsn
         << " segments=" << stats->segment_count
         << " records_since_snapshot=" << stats->records_since_snapshot
         << " snapshot_age_ms="
         << (stats->snapshot_time == 0
                 ? -1
                 : (clock_.now() - stats->snapshot_time) / kMillisecond)
         << " appends=" << stats->appends << " commits=" << stats->commits
         << " fsyncs=" << stats->fsyncs;
      return Reply::ok(os.str(),
                       static_cast<std::int64_t>(stats->last_lsn));
    }
    case NestOp::acl_set: {
      auto entry = classad::ClassAd::parse(req.acl_entry);
      if (!entry.ok()) return Reply::fail(Status{entry.error()});
      return Reply{storage_.acl_set(req.principal, req.path, *entry), {}, 0};
    }
    case NestOp::acl_clear:
      // acl_entry carries the principal spec to remove.
      return Reply{
          storage_.acl_clear(req.principal, req.path, req.acl_entry), {}, 0};
    case NestOp::acl_get: {
      auto entries = storage_.acl_get(req.principal, req.path);
      if (!entries.ok()) return Reply::fail(Status{entries.error()});
      std::ostringstream os;
      for (const auto& e : *entries) os << e << "\n";
      return Reply::ok(os.str());
    }
    case NestOp::query_ad:
      return Reply::ok(snapshot_ad().to_string());
    case NestOp::stats_query:
      return Reply::ok(stats_json());
    case NestOp::fault_set:
    case NestOp::fault_list: {
      // Live fault drills can take the whole appliance down (crash specs);
      // only the superuser may touch them.
      if (!req.principal.authenticated ||
          req.principal.name != storage_.options().superuser) {
        return Reply::fail(
            Status{Errc::permission_denied, "fault ops are superuser-only"});
      }
      if (req.op == NestOp::fault_set) {
        return Reply{fault::registry().arm(req.path, req.acl_entry), {}, 0};
      }
      std::ostringstream os;
      for (const auto& fp : fault::registry().list()) {
        os << fp.name << " " << fp.spec << " evals=" << fp.evals
           << " trips=" << fp.trips << "\n";
      }
      return Reply::ok(os.str());
    }
    case NestOp::noop:
      return Reply::ok();
    case NestOp::get:
    case NestOp::put:
    case NestOp::read_block:
    case NestOp::write_block:
      return Reply::fail(
          Status{Errc::internal, "transfer op routed to execute()"});
  }
  return Reply::fail(Status{Errc::unsupported, "unknown op"});
}

std::optional<Error> Dispatcher::admit(const NestRequest& req) {
  // Forced shed for chaos drills: the failpoint models the controller
  // rejecting, so the reply path (explicit busy, no queueing) is
  // exercised without needing real overload.
  bool force_shed = false;
  NEST_FAILPOINT("dispatcher.admit", force_shed = true);
  if (force_shed) {
    obs::Stats::global().shed.fetch_add(1, std::memory_order_relaxed);
    return Error{Errc::busy, "admission: shed (failpoint)"};
  }
  const auto v = admission_.admit(req.protocol, req.principal.name);
  if (v == transfer::AdmissionController::Verdict::admitted) {
    return std::nullopt;
  }
  return Error{Errc::busy,
               std::string("admission: server overloaded (") +
                   transfer::verdict_name(v) + ")"};
}

Result<storage::TransferTicket> Dispatcher::approve_get(
    const NestRequest& req) {
  obs::Span span(obs::Layer::dispatcher, "approve_get");
  if (auto shed = admit(req)) {
    obs::Stats::global().errors.fetch_add(1, std::memory_order_relaxed);
    return *shed;
  }
  auto t = storage_.approve_read(req.principal, req.path);
  if (!t.ok()) {
    // A read of cold data is answered with the retryable staging error,
    // but it also *starts* the recall: the client's retry loop is the
    // wait, the HSM worker is the motor (CASTOR-style implicit staging).
    if (t.error().code == Errc::staging && hsm_) {
      hsm_->note_cold_read(req.principal, req.path);
    }
    obs::Stats::global().errors.fetch_add(1, std::memory_order_relaxed);
  }
  return t;
}

Result<storage::TransferTicket> Dispatcher::approve_put(
    const NestRequest& req) {
  obs::Span span(obs::Layer::dispatcher, "approve_put");
  if (auto shed = admit(req)) {
    obs::Stats::global().errors.fetch_add(1, std::memory_order_relaxed);
    return *shed;
  }
  auto t = storage_.approve_write(req.principal, req.path, req.size);
  if (!t.ok()) {
    obs::Stats::global().errors.fetch_add(1, std::memory_order_relaxed);
  }
  return t;
}

std::pair<double, double> Dispatcher::observe_load(Nanos now) const {
  MutexLock lock(load_mu_);
  const double total_bps =
      total_rate_.observe(now, tm_.total_bytes());
  for (const auto& [cls, bytes] : tm_.meter().per_class()) {
    proto_rates_[cls].observe(now, bytes);
  }
  // Instantaneous load = occupied transfer slots as a fraction of the
  // configured slot count; > 1 means admissions are queueing.
  const double inst =
      static_cast<double>(tm_.in_flight()) /
      static_cast<double>(options_.transfer_slots > 0
                              ? options_.transfer_slots
                              : 1);
  return {total_bps / 1e6, load_.observe(now, inst)};
}

classad::ClassAd Dispatcher::snapshot_ad() const {
  classad::ClassAd ad = storage_.resource_ad();
  ad.insert("Name", classad::Value::string(options_.advertised_name));
  ad.insert("ActiveTransfers",
            classad::Value::integer(static_cast<std::int64_t>(
                tm_.in_flight())));
  ad.insert("CompletedTransfers",
            classad::Value::integer(tm_.completed_requests()));
  ad.insert("BytesMoved", classad::Value::integer(tm_.total_bytes()));
  ad.insert("MeanTransferMs",
            classad::Value::real(tm_.latencies().mean_ms()));
  ad.insert("Scheduler",
            classad::Value::string(tm_.options().scheduler));

  // Live load section (paper Section 3: ads should reflect resource *and*
  // data availability, not just static capacity).
  const Nanos now = clock_.now();
  const auto [mbps, load_avg] = observe_load(now);
  ad.insert("LoadAvg", classad::Value::real(load_avg));
  ad.insert("ThroughputMBps", classad::Value::real(mbps));
  {
    MutexLock lock(load_mu_);
    for (const auto& [cls, bytes] : tm_.meter().per_class()) {
      // Window-averaged per-protocol rate; attribute per protocol class.
      const double rate =
          proto_rates_[cls].observe(now, bytes) / 1e6;
      ad.insert("Throughput_" + cls, classad::Value::real(rate));
    }
  }
  auto& stats = obs::Stats::global();
  ad.insert("BytesQueued",
            classad::Value::integer(
                stats.bytes_queued.load(std::memory_order_relaxed)));
  ad.insert("Requests",
            classad::Value::integer(
                stats.requests.load(std::memory_order_relaxed)));
  ad.insert("Errors",
            classad::Value::integer(
                stats.errors.load(std::memory_order_relaxed)));
  ad.insert("MeanRequestMs",
            classad::Value::real(stats.request_all.mean_ms()));
  ad.insert("P99RequestMs",
            classad::Value::real(stats.request_all.percentile_ms(99)));
  // Admission section: clients picking a replica can prefer an appliance
  // that is not shedding. Every field is an O(1) counter read.
  const auto adm = admission_.snapshot();
  ad.insert("AdmissionEnabled",
            classad::Value::boolean(admission_.enabled()));
  ad.insert("AdmissionOutstanding",
            classad::Value::integer(adm.outstanding));
  ad.insert("AdmissionShed", classad::Value::integer(adm.shed));
  ad.insert("AdmissionPredictedWaitMs",
            classad::Value::real(adm.predicted_wait_ms));
  return ad;
}

std::string Dispatcher::stats_json() const {
  const Nanos now = clock_.now();
  const auto [mbps, load_avg] = observe_load(now);
  auto& stats = obs::Stats::global();
  const classad::ClassAd res = storage_.resource_ad();
  auto res_int = [&res](const std::string& name) {
    return res.eval_int(name).value_or(0);
  };

  std::ostringstream os;
  os << "{\"name\":\"" << options_.advertised_name << "\""
     << ",\"scheduler\":\"" << tm_.options().scheduler << "\""
     << ",\"uptime_sec\":" << to_seconds(now - started_)
     << ",\"load\":{\"load_avg\":" << load_avg
     << ",\"throughput_mbps\":" << mbps << ",\"per_protocol_mbps\":{";
  {
    MutexLock lock(load_mu_);
    bool first = true;
    for (const auto& [cls, bytes] : tm_.meter().per_class()) {
      if (!first) os << ",";
      first = false;
      os << "\"" << cls
         << "\":" << proto_rates_[cls].observe(now, bytes) / 1e6;
    }
  }
  os << "}}"
     << ",\"transfers\":{\"active\":" << tm_.in_flight()
     << ",\"completed\":" << tm_.completed_requests()
     << ",\"bytes_moved\":" << tm_.total_bytes()
     << ",\"bytes_queued\":"
     << stats.bytes_queued.load(std::memory_order_relaxed)
     << ",\"slots\":" << options_.transfer_slots << "}";
  {
    const auto adm = admission_.snapshot();
    os << ",\"admission\":{\"enabled\":"
       << (admission_.enabled() ? "true" : "false")
       << ",\"outstanding\":" << adm.outstanding
       << ",\"admitted\":" << adm.admitted << ",\"shed\":" << adm.shed
       << ",\"shed_queue\":" << adm.shed_queue
       << ",\"shed_user\":" << adm.shed_user
       << ",\"shed_latency\":" << adm.shed_latency
       << ",\"predicted_wait_ms\":" << adm.predicted_wait_ms
       << ",\"completion_rate_per_sec\":" << adm.completion_rate_per_sec
       << ",\"active_users\":" << adm.active_users << "}";
  }
  os << ",\"storage\":{\"total_space\":" << res_int("TotalSpace")
     << ",\"used_space\":" << res_int("UsedSpace")
     << ",\"free_space\":" << res_int("FreeSpace")
     << ",\"free_lot_space\":" << res_int("AvailableLotSpace")
     << ",\"reclaimable_space\":" << res_int("ReclaimableSpace") << "}";
  if (storage_.cold_tier_attached()) {
    const auto hs = storage_.hsm_stats();
    os << ",\"hsm\":{\"cold_files\":" << hs.cold_files
       << ",\"cold_bytes\":" << hs.cold_bytes
       << ",\"migrating\":" << hs.migrating
       << ",\"recalling\":" << hs.recalling
       << ",\"recalls_pending\":" << (hsm_ ? hsm_->recalls().pending() : 0)
       << "}";
  }
  os << ",\"journal\":";
  if (const auto js = storage_.journal_stats()) {
    os << "{\"last_lsn\":" << js->last_lsn
       << ",\"durable_lsn\":" << js->durable_lsn
       << ",\"appends\":" << js->appends << ",\"commits\":" << js->commits
       << ",\"fsyncs\":" << js->fsyncs << "}";
  } else {
    os << "null";
  }
  os << ",\"metrics\":" << stats.to_json() << "}";
  return os.str();
}

void Dispatcher::publish_once(discovery::Collector& collector) {
  // Models a collector outage: the ad is skipped, never blocked on.
  bool drop = false;
  NEST_FAILPOINT("dispatcher.publish", drop = true);
  if (drop) {
    NEST_LOG_WARN("dispatcher", "ad publication dropped (failpoint)");
    return;
  }
  collector.advertise(options_.advertised_name, snapshot_ad());
}

void Dispatcher::start_publishing(discovery::Collector& collector) {
  stop_publishing();
  {
    MutexLock lock(pub_mu_);
    pub_stop_ = false;
  }
  publisher_ = std::thread([this, &collector] {
    MutexLock lock(pub_mu_);
    while (!pub_stop_) {
      lock.unlock();
      publish_once(collector);
      lock.lock();
      pub_cv_.wait_for(
          lock, std::chrono::nanoseconds(options_.publish_interval),
          [this] { return pub_stop_; });
    }
  });
}

void Dispatcher::stop_publishing() {
  {
    MutexLock lock(pub_mu_);
    pub_stop_ = true;
  }
  pub_cv_.notify_all();
  if (publisher_.joinable()) publisher_.join();
}

}  // namespace nest::dispatcher

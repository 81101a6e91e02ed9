#include "server/config.h"

#include "common/string_util.h"

namespace nest::server {

Result<NestdConfig> options_from_config(const Config& cfg) {
  NestdConfig out;
  NestServerOptions& opts = out.options;
  opts.root_dir = cfg.get_string("root");
  opts.backend = cfg.get_string("backend");  // mem | local | extent
  opts.capacity = cfg.get_size("capacity", 1'000'000'000);
  opts.name = cfg.get_string("name", "nest");
  opts.chirp_port = static_cast<int>(cfg.get_int("chirp_port", 9094));
  opts.http_port = static_cast<int>(cfg.get_int("http_port", 9080));
  opts.ftp_port = static_cast<int>(cfg.get_int("ftp_port", 9021));
  opts.gridftp_port = static_cast<int>(cfg.get_int("gridftp_port", 9811));
  opts.nfs_port = static_cast<int>(cfg.get_int("nfs_port", 9049));
  opts.allow_anonymous = cfg.get_bool("anonymous", true);
  opts.transfer_slots = static_cast<int>(cfg.get_int("slots", 8));
  opts.bandwidth_limit = cfg.get_size("bandwidth", 0);
  opts.acceptor_shards = static_cast<int>(cfg.get_int("acceptor_shards", 1));
  if (opts.acceptor_shards < 1 || opts.acceptor_shards > 64) {
    return Error{Errc::invalid_argument,
                 "acceptor_shards must be in [1, 64]"};
  }
  opts.block_bytes = cfg.get_size("block_bytes", 64 * 1024);
  if (opts.block_bytes < 4096) {
    return Error{Errc::invalid_argument, "block_bytes must be >= 4096"};
  }

  // Admission control (both default 0 = disabled: queue without bound).
  opts.admission.target_ms =
      static_cast<double>(cfg.get_int("admission_target_ms", 0));
  if (opts.admission.target_ms < 0) {
    return Error{Errc::invalid_argument,
                 "admission_target_ms must be >= 0"};
  }
  opts.admission.max_queue =
      static_cast<int>(cfg.get_int("admission_max_queue", 0));
  if (opts.admission.max_queue < 0) {
    return Error{Errc::invalid_argument,
                 "admission_max_queue must be >= 0"};
  }

  // Metadata journal (empty journal = disabled).
  opts.journal_dir = cfg.get_string("journal");
  if (cfg.has("journal_sync")) {
    auto mode = journal::sync_mode_by_name(cfg.get_string("journal_sync"));
    if (!mode.ok()) return mode.error();
    opts.journal_sync = *mode;
  }
  opts.storage.journal_snapshot_every = static_cast<std::uint64_t>(
      cfg.get_int("journal_snapshot_every", 4096));
  if (cfg.has("journal_sync") && opts.journal_dir.empty()) {
    return Error{Errc::invalid_argument,
                 "journal_sync set but no journal directory"};
  }

  // Hierarchical storage (docs/hsm.md); no cold_dir and no cold_backend
  // means no cold tier.
  opts.cold_dir = cfg.get_string("cold_dir");
  opts.cold_backend = cfg.get_string("cold_backend");
  opts.cold_capacity = cfg.get_size("cold_capacity", 10'000'000'000);
  opts.cold_bandwidth = cfg.get_size("cold_bandwidth", 12LL * 1024 * 1024);
  opts.cold_open_latency_ms =
      static_cast<int>(cfg.get_int("cold_open_latency_ms", 0));
  if (opts.cold_bandwidth < 0 || opts.cold_open_latency_ms < 0) {
    return Error{Errc::invalid_argument, "cold throttles must be >= 0"};
  }
  opts.hsm_scan_interval = cfg.get_duration("hsm_scan", 10 * kSecond);
  if (opts.hsm_scan_interval <= 0) {
    return Error{Errc::invalid_argument, "hsm_scan must be positive"};
  }
  opts.hsm_auto_migrate = cfg.get_bool("hsm_auto_migrate", true);
  opts.hsm_worker = cfg.get_bool("hsm_worker", true);
  opts.hsm_migrate_tickets = cfg.get_int("hsm_migrate_tickets", 0);
  opts.hsm_recall_tickets = cfg.get_int("hsm_recall_tickets", 0);
  if (opts.hsm_migrate_tickets < 0 || opts.hsm_recall_tickets < 0) {
    return Error{Errc::invalid_argument, "hsm tickets must be >= 0"};
  }
  if ((opts.hsm_migrate_tickets > 0 || opts.hsm_recall_tickets > 0) &&
      cfg.get_string("scheduler", "fifo").rfind("stride", 0) != 0) {
    return Error{Errc::invalid_argument,
                 "hsm_*_tickets requires a stride scheduler"};
  }

  // Startup failpoint drills, "name=spec;..." — validated at server init.
  opts.failpoints = cfg.get_string("failpoints");

  // Cluster federation (docs/cluster.md). The node name doubles as its
  // in-cluster identity; peers are "name@host:chirp_port".
  if (cfg.has("cluster_role")) {
    auto role = cluster::role_by_name(cfg.get_string("cluster_role"));
    if (!role.ok()) return role.error();
    opts.cluster.role = *role;
  }
  for (const auto& entry : split(cfg.get_string("cluster_peers"), ',')) {
    const auto text = trim(entry);
    if (text.empty()) continue;
    auto addr = cluster::parse_peer_address(std::string(text));
    if (!addr.ok()) return addr.error();
    opts.cluster.peers.push_back(std::move(*addr));
  }
  if (opts.cluster.role != cluster::Role::standalone &&
      opts.cluster.peers.empty()) {
    return Error{Errc::invalid_argument,
                 "cluster_role set but cluster_peers is empty"};
  }
  opts.cluster.replication_factor =
      static_cast<int>(cfg.get_int("replication_factor", 1));
  if (opts.cluster.replication_factor < 1) {
    return Error{Errc::invalid_argument,
                 "replication_factor must be >= 1"};
  }
  opts.cluster.heartbeat_interval =
      cfg.get_duration("cluster_heartbeat", 2 * kSecond);
  opts.cluster.heartbeat_timeout =
      cfg.get_duration("cluster_heartbeat_timeout", 15 * kSecond);
  if (opts.cluster.heartbeat_interval <= 0 ||
      opts.cluster.heartbeat_timeout < opts.cluster.heartbeat_interval) {
    return Error{Errc::invalid_argument,
                 "cluster heartbeat timeout must be >= interval > 0"};
  }
  opts.cluster.name = opts.name;
  // Outbound identity for peer links (REPL) and third-party transfers.
  // The subject defaults to the node name whenever a secret is given —
  // peers register each other under their node names.
  opts.own_subject = cfg.get_string("own_subject");
  opts.own_secret = cfg.get_string("own_secret");
  if (opts.own_subject.empty() && !opts.own_secret.empty()) {
    opts.own_subject = opts.name;
  }

  const std::string scheduler = cfg.get_string("scheduler", "fifo");
  {
    // Validate via the factory the transfer manager itself uses.
    ManualClock probe;
    if (transfer::make_scheduler(scheduler, probe) == nullptr) {
      return Error{Errc::invalid_argument,
                   "unknown scheduler '" + scheduler + "'"};
    }
  }
  opts.tm.scheduler = scheduler;

  for (const auto& [key, value] : cfg.entries()) {
    if (key.rfind("user.", 0) == 0) {
      ConfiguredUser user;
      user.name = key.substr(5);
      const auto parts = split(value, ':');
      user.secret = parts[0];
      if (parts.size() > 1) user.groups = split(parts[1], ',');
      out.users.push_back(std::move(user));
    } else if (key.rfind("tickets.", 0) == 0) {
      const auto n = parse_int(value);
      if (!n || *n < 1) {
        return Error{Errc::invalid_argument,
                     "bad ticket count for " + key};
      }
      out.tickets.push_back(TicketEntry{key.substr(8), *n});
    }
  }
  if (!out.tickets.empty() && opts.tm.scheduler.rfind("stride", 0) != 0) {
    return Error{Errc::invalid_argument,
                 "tickets.* requires a stride scheduler"};
  }
  return out;
}

void apply_runtime_config(const NestdConfig& cfg, NestServer& server) {
  for (const auto& user : cfg.users) {
    server.gsi().add_user(user.name, user.secret, user.groups);
  }
  if (auto* stride = server.tm().stride()) {
    for (const auto& entry : cfg.tickets) {
      stride->set_tickets(entry.cls, entry.tickets);
    }
  }
}

}  // namespace nest::server

// Config-file -> NestServerOptions mapping for nestd (and any embedder
// that wants file-driven configuration). Kept out of nestd's main() so it
// is unit-testable.
//
// Recognized keys (see nestd.cpp header for the full commented example):
//   root capacity name chirp_port http_port ftp_port gridftp_port nfs_port
//   scheduler anonymous slots
//   journal journal_sync journal_snapshot_every
//   cluster_role cluster_peers replication_factor
//   cluster_heartbeat cluster_heartbeat_timeout
//   cold_dir cold_backend cold_capacity cold_bandwidth cold_open_latency_ms
//   hsm_scan hsm_auto_migrate hsm_worker hsm_migrate_tickets
//   hsm_recall_tickets
//   tickets.<class> = <n>          (stride tickets per protocol/user class)
//   user.<name>     = <secret>[:group1,group2]
#pragma once

#include <string>
#include <vector>

#include "common/config.h"
#include "server/nest_server.h"

namespace nest::server {

struct ConfiguredUser {
  std::string name;
  std::string secret;
  std::vector<std::string> groups;
};

struct TicketEntry {
  std::string cls;
  std::int64_t tickets = 1;
};

struct NestdConfig {
  NestServerOptions options;
  std::vector<ConfiguredUser> users;
  std::vector<TicketEntry> tickets;
};

// Parse and validate; rejects bad scheduler kinds and out-of-range values
// rather than starting a misconfigured appliance. Unknown keys are ignored.
NEST_NODISCARD Result<NestdConfig> options_from_config(const Config& cfg);

// Apply users + tickets to a started server.
void apply_runtime_config(const NestdConfig& cfg, NestServer& server);

}  // namespace nest::server

// NestServer: the real (socket-backed) NeST appliance.
//
// One TCP listener per enabled protocol — the protocol layer invokes the
// handler for the connecting port (paper Section 2.2) — plus a UDP
// endpoint for NFS/ONC-RPC. Each accepted connection is served on its own
// thread by its protocol handler, which also moves that connection's data
// blocks (thread-per-connection is the only real-mode concurrency model;
// the paper's events/processes/staged models and adaptive selection are
// sim-only, see src/simnest). All handlers share one storage manager, one
// dispatcher, one transfer manager (scheduling) and one GSI registry.
#pragma once

#include <atomic>
#include <set>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_node.h"
#include "common/mutex.h"
#include "dispatcher/dispatcher.h"
#include "journal/journal.h"
#include "net/socket.h"
#include "protocol/executor.h"
#include "protocol/gsi.h"
#include "protocol/handler.h"
#include "protocol/nfs_handler.h"
#include "storage/storage_manager.h"
#include "transfer/transfer_manager.h"

namespace nest::server {

struct NestServerOptions {
  // Storage backend selection:
  //   "mem"    — in-memory (default when root_dir is empty)
  //   "local"  — sandboxed host directory at root_dir (default otherwise)
  //   "extent" — raw-disk-style extent store; root_dir is the volume file
  //              (empty root_dir = in-memory volume)
  std::string backend;
  // Host directory (local) or volume file (extent); empty = in-memory.
  std::string root_dir;
  std::int64_t capacity = 1'000'000'000;
  storage::StorageOptions storage;
  // The server reads only `scheduler`, the cache-model sizing and the
  // latency-sample bound from this; the concurrency-model fields are sim-only.
  transfer::TransferManager::Options tm;
  int transfer_slots = 8;
  // Overload admission control (admission_target_ms / admission_max_queue
  // in nest.conf; both zero = disabled, transfers queue without bound).
  transfer::AdmissionOptions admission;
  // Total transfer-rate cap in bytes/sec (0 = unlimited). Scheduling
  // policies bind at this rate even on networks faster than it.
  std::int64_t bandwidth_limit = 0;
  // Acceptor shards per TCP endpoint: with > 1, each endpoint binds N
  // SO_REUSEPORT listeners and the kernel load-balances incoming
  // connections across their acceptor threads (no shared accept lock).
  int acceptor_shards = 1;
  // Transfer quantum: bytes moved (and charged) per scheduler admission.
  std::int64_t block_bytes = 64 * 1024;
  bool allow_anonymous = true;
  std::string name = "nest";
  // Appliance identity used when this NeST initiates transfers to peers
  // (Chirp THIRDPUT and cluster replica links). Register it in the peers'
  // GSI registries.
  std::string own_subject;
  std::string own_secret;

  // Hierarchical storage (docs/hsm.md). A cold tier is attached when
  // cold_dir is set or cold_backend is "mem"; reads of cold data then get
  // the retryable staging reply while the recall worker stages the file
  // back, and the migrator drains expired best-effort lot data per scan.
  std::string cold_backend;  // "mem" | "local" (default: by cold_dir)
  std::string cold_dir;      // host directory for the "local" cold tier
  std::int64_t cold_capacity = 10'000'000'000;
  // SlowFs tape model: sustained bandwidth (bytes/sec) and per-open
  // positioning cost. Zero disables the corresponding throttle.
  std::int64_t cold_bandwidth = 12LL * 1024 * 1024;
  int cold_open_latency_ms = 0;
  Nanos hsm_scan_interval = 10 * kSecond;  // migration/recall worker cadence
  bool hsm_auto_migrate = true;  // worker drains expired lots by policy
  bool hsm_worker = true;        // background worker (off: poll via hsm())
  // Stride tickets pinning the migrate/recall scheduler classes against
  // live protocol classes (0 = leave the scheduler default). Requires a
  // stride scheduler; this is the migration pacing lever.
  std::int64_t hsm_migrate_tickets = 0;
  std::int64_t hsm_recall_tickets = 0;

  // Cluster federation (docs/cluster.md). A node joins a cluster when
  // `peers` is non-empty or its role is not standalone; `cluster.name`
  // defaults to `name` when left empty.
  cluster::ClusterConfig cluster;

  // Listener ports: 0 = ephemeral (query after start), -1 = disabled.
  int chirp_port = 0;
  int http_port = 0;
  int ftp_port = 0;
  int gridftp_port = 0;
  int nfs_port = 0;  // UDP

  // Idle-connection read timeout, ms (bounds shutdown latency).
  int idle_timeout_ms = 30'000;

  // Metadata journal directory; empty = no journal (lot/ACL/quota state
  // dies with the process). With a journal, recovery runs before any
  // endpoint binds, and every metadata mutation is acknowledged only
  // once durable per journal_sync.
  std::string journal_dir;
  journal::SyncMode journal_sync = journal::SyncMode::always;
  Nanos journal_commit_interval = 5 * kMillisecond;  // group-commit cadence
  std::uint64_t journal_snapshot_every = 4096;       // compaction cadence

  // Failpoints to arm at startup, "name=spec;name=spec" (action grammar:
  // docs/fault-injection.md). Armed in init() before any endpoint binds;
  // the process-wide registry can also be driven at runtime via the Chirp
  // FAULT op and $NEST_FAILPOINTS.
  std::string failpoints;
};

class NestServer {
 public:
  NEST_NODISCARD
  static Result<std::unique_ptr<NestServer>> start(NestServerOptions options);
  ~NestServer();
  NestServer(const NestServer&) = delete;
  NestServer& operator=(const NestServer&) = delete;

  void stop();

  uint16_t chirp_port() const { return chirp_port_; }
  uint16_t http_port() const { return http_port_; }
  uint16_t ftp_port() const { return ftp_port_; }
  uint16_t gridftp_port() const { return gridftp_port_; }
  uint16_t nfs_port() const { return nfs_port_; }

  protocol::GsiRegistry& gsi() { return gsi_; }
  dispatcher::Dispatcher& dispatcher() { return *dispatcher_; }
  storage::StorageManager& storage() { return *storage_; }
  transfer::TransferManager& tm() { return *tm_; }
  // Null when the node is not clustered.
  cluster::ClusterNode* cluster() { return cluster_.get(); }
  // Null when no cold tier is configured.
  hsm::HsmManager* hsm() { return hsm_.get(); }

 private:
  explicit NestServer(NestServerOptions options);
  NEST_NODISCARD Status init();
  // Binds the HTTP, FTP, and GridFTP endpoints (defined in endpoints.cpp).
  NEST_NODISCARD
  Status make_extra_endpoints(const protocol::ServerContext& ctx);
  NEST_NODISCARD
  Status bind_endpoint(int port,
                       std::unique_ptr<protocol::ProtocolHandler> handler,
                       uint16_t* out_port);
  void accept_loop(net::TcpListener* listener,
                   protocol::ProtocolHandler* handler);

  NestServerOptions options_;
  protocol::GsiRegistry gsi_;
  std::unique_ptr<journal::Journal> journal_;
  std::unique_ptr<storage::StorageManager> storage_;
  std::unique_ptr<transfer::TransferManager> tm_;
  std::unique_ptr<dispatcher::Dispatcher> dispatcher_;
  std::unique_ptr<protocol::TransferExecutor> executor_;
  std::unique_ptr<hsm::HsmManager> hsm_;
  std::unique_ptr<cluster::ClusterNode> cluster_;

  struct Endpoint {
    std::unique_ptr<net::TcpListener> listener;
    // Shared because REUSEPORT shards of one port serve through the same
    // handler instance (handlers keep per-connection state on the stack).
    std::shared_ptr<protocol::ProtocolHandler> handler;
    std::thread acceptor;
  };
  std::vector<Endpoint> endpoints_;
  std::unique_ptr<protocol::NfsService> nfs_;  // UDP RPC service

  Mutex conn_mu_{lockrank::Rank::server_conn, "server.conn"};
  std::vector<std::thread> connections_ GUARDED_BY(conn_mu_);
  // Live connection sockets, for shutdown-on-stop.
  std::set<int> conn_fds_ GUARDED_BY(conn_mu_);
  std::atomic<bool> stopping_{false};

  uint16_t chirp_port_ = 0;
  uint16_t http_port_ = 0;
  uint16_t ftp_port_ = 0;
  uint16_t gridftp_port_ = 0;
  uint16_t nfs_port_ = 0;
};

}  // namespace nest::server

#include "server/nest_server.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "cluster/chirp_link.h"
#include "common/log.h"
#include "hsm/slowfs.h"
#include "fault/failpoint.h"
#include "protocol/chirp_handler.h"
#include "storage/extentfs.h"
#include "storage/localfs.h"
#include "storage/memfs.h"

namespace nest::server {

using protocol::ProtocolHandler;

namespace {

// GSI challenge/response over a fresh Chirp stream (banner already
// consumed), used by outbound cluster replica links. Mirrors the
// ChirpClient login sequence.
Status gsi_login(net::TcpStream& stream, const std::string& subject,
                 const std::string& secret) {
  if (subject.empty()) {
    if (auto s = stream.write_all(std::string("AUTH anonymous\r\n")); !s.ok())
      return s;
    auto reply = stream.read_line();
    if (!reply.ok()) return Status{reply.error()};
    if (reply->rfind("230", 0) != 0)
      return Status{Errc::not_authenticated, *reply};
    return {};
  }
  if (auto s = stream.write_all("AUTH " + subject + "\r\n"); !s.ok())
    return s;
  auto challenge = stream.read_line();
  if (!challenge.ok()) return Status{challenge.error()};
  if (challenge->rfind("334 ", 0) != 0)
    return Status{Errc::not_authenticated, *challenge};
  const std::string response =
      protocol::GsiRegistry::respond(secret, challenge->substr(4));
  if (auto s = stream.write_all("RESPONSE " + response + "\r\n"); !s.ok())
    return s;
  auto reply = stream.read_line();
  if (!reply.ok()) return Status{reply.error()};
  if (reply->rfind("230", 0) != 0)
    return Status{Errc::not_authenticated, *reply};
  return {};
}

}  // namespace

NestServer::NestServer(NestServerOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<NestServer>> NestServer::start(
    NestServerOptions options) {
  std::unique_ptr<NestServer> server(new NestServer(std::move(options)));
  if (auto s = server->init(); !s.ok()) return Error{s.error()};
  return server;
}

Status NestServer::init() {
  // Real mode has no timer to end a non-work-conserving hold, so a held
  // transfer would wait until an unrelated release happened to grant it.
  if (options_.tm.scheduler == "stride-nwc") {
    return Status{Errc::invalid_argument,
                  "scheduler 'stride-nwc' is simulation-only"};
  }
  // Startup fault drills: arm configured failpoints first so even backend
  // bring-up and journal recovery run under them.
  if (!options_.failpoints.empty()) {
    if (auto s = fault::registry().arm_many(options_.failpoints); !s.ok())
      return s;
  }

  // Storage backend.
  std::unique_ptr<storage::VirtualFs> fs;
  std::string backend = options_.backend;
  if (backend.empty()) backend = options_.root_dir.empty() ? "mem" : "local";
  if (backend == "mem") {
    fs = std::make_unique<storage::MemFs>(RealClock::instance(),
                                          options_.capacity);
  } else if (backend == "local") {
    auto local =
        storage::LocalFs::open_root(options_.root_dir, options_.capacity);
    if (!local.ok()) return Status{local.error()};
    fs = std::move(local.value());
  } else if (backend == "extent") {
    if (options_.root_dir.empty()) {
      fs = std::make_unique<storage::ExtentFs>(RealClock::instance(),
                                               options_.capacity);
    } else {
      auto vol = storage::ExtentFs::open_volume(
          RealClock::instance(), options_.root_dir, options_.capacity);
      if (!vol.ok()) return Status{vol.error()};
      fs = std::move(vol.value());
    }
  } else {
    return Status{Errc::invalid_argument, "unknown backend '" + backend + "'"};
  }
  storage_ = std::make_unique<storage::StorageManager>(
      RealClock::instance(), std::move(fs), options_.storage);

  // Cold tier (attached before journal recovery so replayed residency
  // records can be scrubbed against the actual cold store afterwards).
  std::string cold_backend = options_.cold_backend;
  if (cold_backend.empty() && !options_.cold_dir.empty())
    cold_backend = "local";
  if (!cold_backend.empty()) {
    std::unique_ptr<storage::VirtualFs> cold;
    if (cold_backend == "mem") {
      cold = std::make_unique<storage::MemFs>(RealClock::instance(),
                                              options_.cold_capacity);
    } else if (cold_backend == "local") {
      auto local = storage::LocalFs::open_root(options_.cold_dir,
                                               options_.cold_capacity);
      if (!local.ok()) return Status{local.error()};
      cold = std::move(local.value());
    } else {
      return Status{Errc::invalid_argument,
                    "unknown cold backend '" + cold_backend + "'"};
    }
    if (options_.cold_bandwidth > 0 || options_.cold_open_latency_ms > 0) {
      cold = std::make_unique<hsm::SlowFs>(
          std::move(cold),
          hsm::SlowFsOptions{options_.cold_bandwidth,
                             options_.cold_open_latency_ms});
    }
    storage_->attach_cold_tier(std::move(cold));
  }

  // Metadata journal: recover lot/ACL/residency state and install the
  // write-ahead barrier before any endpoint can accept a request.
  if (!options_.journal_dir.empty()) {
    journal::JournalOptions jopts;
    jopts.dir = options_.journal_dir;
    jopts.sync = options_.journal_sync;
    auto j = journal::Journal::open(RealClock::instance(), jopts);
    if (!j.ok()) return Status{j.error()};
    journal_ = std::move(j.value());
    if (auto s = storage_->attach_journal(*journal_); !s.ok()) return s;
    // Resolve any migration/recall the crash interrupted: the journal only
    // records stable residency, so the scrub walks both tiers and deletes
    // whichever half-copy the records disown.
    if (storage_->cold_tier_attached()) {
      if (auto s = storage_->hsm_recover(); !s.ok()) return s;
    }
  }

  tm_ = std::make_unique<transfer::TransferManager>(RealClock::instance(),
                                                    options_.tm);
  dispatcher::Dispatcher::Options dopts;
  dopts.transfer_slots = options_.transfer_slots;
  dopts.advertised_name = options_.name;
  dopts.admission = options_.admission;
  dispatcher_ = std::make_unique<dispatcher::Dispatcher>(
      RealClock::instance(), *storage_, *tm_, dopts);
  executor_ = std::make_unique<protocol::TransferExecutor>(
      RealClock::instance(), *tm_, dispatcher_->core(),
      options_.block_bytes, options_.bandwidth_limit);

  if (storage_->cold_tier_attached()) {
    hsm::HsmOptions hopts;
    hopts.block_bytes = options_.block_bytes;
    hopts.scan_interval = options_.hsm_scan_interval;
    hopts.auto_migrate = options_.hsm_auto_migrate;
    hsm_ = std::make_unique<hsm::HsmManager>(RealClock::instance(), *storage_,
                                             &dispatcher_->core(), hopts);
    dispatcher_->set_hsm(hsm_.get());
    // HSM traffic is just another scheduler class: pinning its tickets is
    // how migration pacing trades against live client transfers.
    if (auto* stride = tm_->stride()) {
      if (options_.hsm_migrate_tickets > 0)
        stride->set_tickets("migrate", options_.hsm_migrate_tickets);
      if (options_.hsm_recall_tickets > 0)
        stride->set_tickets("recall", options_.hsm_recall_tickets);
    }
    if (options_.hsm_worker) hsm_->start();
  }

  // Cluster federation: built whenever peers are configured (a standalone
  // node with peers still heartbeats them so replica selection has a load
  // view), started only after every endpoint is up.
  if (!options_.cluster.peers.empty() ||
      options_.cluster.role != cluster::Role::standalone) {
    if (options_.cluster.name.empty()) options_.cluster.name = options_.name;
    cluster_ = std::make_unique<cluster::ClusterNode>(RealClock::instance(),
                                                      options_.cluster);
    cluster_->attach_storage(storage_.get());
    const std::string subject = options_.own_subject;
    const std::string secret = options_.own_secret;
    cluster_->set_link_factory(
        [subject, secret](const cluster::PeerAddress& addr)
            -> std::unique_ptr<cluster::ReplicaLink> {
          return std::make_unique<cluster::ChirpLink>(
              addr, [subject, secret](net::TcpStream& s) {
                return gsi_login(s, subject, secret);
              });
        });
    cluster_->set_file_reader(
        [this](const std::string& path) -> Result<std::string> {
          // Content pushes run as the appliance itself: superuser read,
          // outside any client session.
          storage::Principal self;
          self.name = storage_->options().superuser;
          self.authenticated = true;
          self.protocol = "cluster";
          auto ticket = storage_->approve_read(self, path);
          if (!ticket.ok()) return ticket.error();
          std::string data(static_cast<std::size_t>(ticket->size), '\0');
          std::size_t off = 0;
          while (off < data.size()) {
            auto n = ticket->handle->pread(
                std::span(data.data() + off, data.size() - off),
                static_cast<std::int64_t>(off));
            if (!n.ok()) return n.error();
            if (*n <= 0)
              return Error{Errc::io_error, "short read of " + path};
            off += static_cast<std::size_t>(*n);
          }
          return data;
        });
  }

  protocol::ServerContext ctx;
  ctx.dispatcher = dispatcher_.get();
  ctx.gsi = &gsi_;
  ctx.executor = executor_.get();
  ctx.allow_anonymous = options_.allow_anonymous;
  ctx.own_subject = options_.own_subject;
  ctx.own_secret = options_.own_secret;
  ctx.cluster = cluster_.get();

  if (auto s = bind_endpoint(options_.chirp_port,
                             std::make_unique<protocol::ChirpHandler>(ctx),
                             &chirp_port_);
      !s.ok()) {
    return s;
  }
  if (auto s = make_extra_endpoints(ctx); !s.ok()) return s;

  // NFS runs over UDP with its own service loop.
  if (options_.nfs_port >= 0) {
    protocol::NfsService::Options nopts;
    nopts.port = options_.nfs_port;
    nfs_ = std::make_unique<protocol::NfsService>(*dispatcher_, *executor_,
                                                  nopts);
    if (auto s = nfs_->start(); !s.ok()) return s;
    nfs_port_ = nfs_->port();
  }

  // Launch acceptors last so handlers observe fully-built state.
  for (Endpoint& ep : endpoints_) {
    ep.acceptor = std::thread(
        [this, &ep] { accept_loop(ep.listener.get(), ep.handler.get()); });
  }
  // Heartbeat/ship timers start only once this node can itself answer
  // REPL and AD requests (peers dial back concurrently).
  if (cluster_) cluster_->start();
  NEST_LOG_INFO("server", "nest '%s' up (chirp=%u http=%u ftp=%u gftp=%u "
                          "nfs=%u)",
                options_.name.c_str(), chirp_port_, http_port_, ftp_port_,
                gridftp_port_, nfs_port_);
  return {};
}

Status NestServer::bind_endpoint(
    int port, std::unique_ptr<ProtocolHandler> handler, uint16_t* out_port) {
  if (port < 0) return {};
  const int shards = std::max(1, options_.acceptor_shards);
  net::ListenOptions lopts;
  lopts.reuseport = shards > 1;
  auto listener = net::TcpListener::bind(static_cast<uint16_t>(port), lopts);
  if (!listener.ok()) return Status{listener.error()};
  // The first listener resolves an ephemeral request to a concrete port;
  // the other shards REUSEPORT-bind that same port and the kernel
  // load-balances connections across all of their accept queues.
  *out_port = listener->port();
  std::shared_ptr<ProtocolHandler> shared(std::move(handler));
  Endpoint ep;
  ep.listener =
      std::make_unique<net::TcpListener>(std::move(listener.value()));
  ep.handler = shared;
  endpoints_.push_back(std::move(ep));
  for (int i = 1; i < shards; ++i) {
    auto shard = net::TcpListener::bind(*out_port, lopts);
    if (!shard.ok()) return Status{shard.error()};
    Endpoint extra;
    extra.listener =
        std::make_unique<net::TcpListener>(std::move(shard.value()));
    extra.handler = shared;
    endpoints_.push_back(std::move(extra));
  }
  return {};
}

void NestServer::accept_loop(net::TcpListener* listener,
                             ProtocolHandler* handler) {
  net::AcceptBackoff backoff;
  while (!stopping_) {
    auto stream = listener->accept();
    if (!stream.ok()) {
      // Transient exhaustion (EMFILE/ENFILE/ENOBUFS) surfaces as busy:
      // sleep-and-retry with bounded exponential backoff instead of
      // spinning a core or killing the acceptor. Anything else means the
      // listener itself is gone (normally: shutdown closed it).
      if (stream.code() == Errc::busy && !stopping_) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff.next_delay_ms()));
        continue;
      }
      return;
    }
    backoff.reset();
    // Timeout setup is advisory: a stream without it still works.
    (void)stream->set_read_timeout(options_.conn_read_timeout_ms);
    std::vector<std::thread> ended;
    {
      MutexLock lock(conn_mu_);
      for (const std::thread::id id : finished_)
        ended.push_back(std::move(connections_.extract(id).mapped()));
      finished_.clear();
    }
    for (std::thread& t : ended) t.join();
    MutexLock lock(conn_mu_);
    const int fd = stream->fd();
    conn_fds_.insert(fd);
    std::thread t([this, handler, fd, s = std::move(stream.value())]() mutable {
      handler->serve(s);
      // The lambda still owns the stream, so the fd stays open (and thus
      // unrecycled) until after it is unregistered.
      MutexLock inner(conn_mu_);
      conn_fds_.erase(fd);
      finished_.push_back(std::this_thread::get_id());
    });
    // The thread cannot report itself finished before it is in the map:
    // that takes conn_mu_, which this acceptor holds.
    connections_.emplace(t.get_id(), std::move(t));
  }
}

void NestServer::stop() {
  if (stopping_.exchange(true)) return;
  if (hsm_) hsm_->stop();
  if (cluster_) cluster_->stop();
  for (Endpoint& ep : endpoints_) ep.listener->close();
  for (Endpoint& ep : endpoints_) {
    if (ep.acceptor.joinable()) ep.acceptor.join();
  }
  if (nfs_) nfs_->stop();
  std::unordered_map<std::thread::id, std::thread> conns;
  {
    MutexLock lock(conn_mu_);
    conns.swap(connections_);
    // Kick handler threads out of blocking reads on idle connections.
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& [id, t] : conns) t.join();
}

NestServer::~NestServer() { stop(); }

}  // namespace nest::server

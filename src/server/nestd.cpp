// nestd: the standalone NeST appliance daemon.
//
// Usage: nestd [config-file]
//
// Config keys (all optional):
//   root        = /path/to/storage      (default: in-memory backend)
//   backend     = mem | local | extent  (extent: root is a volume file)
//   capacity    = 10G
//   name        = nest@host
//   chirp_port  = 9094     http_port = 9080   ftp_port = 9021
//   gridftp_port= 9811     nfs_port  = 9049   (-1 disables any of them)
//   scheduler   = fifo | stride | stride-nwc | stride-user | cache-aware
//   anonymous   = true
//   slots       = 8
//   bandwidth   = 400M                        (total rate cap; 0 = off)
//   journal     = /path/to/journal            (metadata WAL; empty = off)
//   journal_sync= always | group | none
//   journal_commit = 5ms                      (group-commit fsync cadence)
//   journal_snapshot_every = 4096             (records between snapshots)
//   failpoints  = journal.fsync=after(3)crash;net.send=prob(0.01)return(EPIPE)
//                 (fault drills; $NEST_FAILPOINTS overlays this at startup
//                  and the Chirp FAULT op re-arms at runtime)
//   cluster_role  = standalone | primary | follower
//   cluster_peers = n1@host1:9094,n2@host2:9094   (other cluster members)
//   replication_factor = 2                    (default content copies)
//   cluster_heartbeat  = 2s                   (ad poll cadence)
//   cluster_heartbeat_timeout = 15s           (silence before peer is dead)
//   tickets.<class> = <n>                     (stride share per class)
//   user.<name> = <secret>[:group1,group2]    (GSI subjects; cluster peers
//                  authenticate with their node names as subjects)
#include <csignal>
#include <cstdio>
#include <semaphore>

#include "common/config.h"
#include "fault/failpoint.h"
#include "server/config.h"
#include "server/nest_server.h"

namespace {
std::binary_semaphore g_shutdown(0);
void handle_signal(int) { g_shutdown.release(); }
}  // namespace

int main(int argc, char** argv) {
  using namespace nest;

  Config cfg;
  if (argc > 1) {
    auto loaded = Config::load_file(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "nestd: %s\n", loaded.error().to_string().c_str());
      return 1;
    }
    cfg = std::move(loaded.value());
  }

  auto parsed = server::options_from_config(cfg);
  if (!parsed.ok()) {
    std::fprintf(stderr, "nestd: %s\n", parsed.error().to_string().c_str());
    return 1;
  }

  auto server = server::NestServer::start(parsed->options);
  if (!server.ok()) {
    std::fprintf(stderr, "nestd: %s\n", server.error().to_string().c_str());
    return 1;
  }
  server::apply_runtime_config(*parsed, **server);

  // $NEST_FAILPOINTS overlays (and wins over) config-armed failpoints:
  // it is the operator's one-shot drill hook, applied after startup so a
  // drill cannot be silently overridden by the config file.
  nest::fault::registry().apply_env();

  std::printf("nestd '%s' listening: chirp=%u http=%u ftp=%u gridftp=%u "
              "nfs(udp)=%u\n",
              parsed->options.name.c_str(), (*server)->chirp_port(),
              (*server)->http_port(), (*server)->ftp_port(),
              (*server)->gridftp_port(), (*server)->nfs_port());
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  g_shutdown.acquire();
  std::printf("nestd: shutting down\n");
  (*server)->stop();
  return 0;
}

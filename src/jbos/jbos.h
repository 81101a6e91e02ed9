// JBOS — "Just a Bunch Of Servers" (paper Section 3): the baseline NeST is
// compared against. Each server here speaks exactly one protocol, serves a
// VirtualFs directly, and has no shared transfer manager, no cross-protocol
// scheduling, no lots, and no ACL engine beyond all-or-nothing write
// permission. They are deliberately what you'd get by running independent
// native daemons (wu-ftpd, Apache, nfsd) side by side.
#pragma once

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "net/socket.h"
#include "storage/vfs.h"

namespace nest::jbos {

class MiniServer {
 public:
  // `fs` is shared among the bunch (same machine, same disk).
  MiniServer(storage::VirtualFs& fs, bool writable)
      : fs_(fs), writable_(writable) {}
  virtual ~MiniServer();

  NEST_NODISCARD
  Status start(uint16_t port = 0);  // 0: ephemeral
  void stop();
  uint16_t port() const { return port_; }

 protected:
  virtual void serve(net::TcpStream& stream) = 0;
  storage::VirtualFs& fs_;
  bool writable_;

 private:
  void accept_loop();
  std::unique_ptr<net::TcpListener> listener_;
  std::thread acceptor_;
  Mutex conn_mu_{lockrank::Rank::jbos_conn, "jbos.conn"};
  std::unordered_map<std::thread::id, std::thread> connections_
      GUARDED_BY(conn_mu_);
  // Threads done serving, joined by the acceptor before its next spawn.
  std::vector<std::thread::id> finished_ GUARDED_BY(conn_mu_);
  std::set<int> conn_fds_ GUARDED_BY(conn_mu_);
  std::atomic<bool> stopping_{false};
  uint16_t port_ = 0;
};

// Single-protocol HTTP file server (the "Apache" of the bunch).
class MiniHttpServer final : public MiniServer {
 public:
  using MiniServer::MiniServer;

 protected:
  void serve(net::TcpStream& stream) override;
};

// Single-protocol FTP server (the "wu-ftpd" of the bunch): USER/PASS
// (anonymous), PASV, RETR, STOR, LIST, QUIT.
class MiniFtpServer final : public MiniServer {
 public:
  using MiniServer::MiniServer;

 protected:
  void serve(net::TcpStream& stream) override;
};

// Single-protocol native Chirp server (NeST's own protocol, minus every
// NeST feature): GET/PUT/LIST/QUIT only, no auth, no lots.
class MiniChirpServer final : public MiniServer {
 public:
  using MiniServer::MiniServer;

 protected:
  void serve(net::TcpStream& stream) override;
};

}  // namespace nest::jbos

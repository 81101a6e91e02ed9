// NFS service: the restricted NFSv2 subset the paper supports, over our
// ONC-RPC/XDR on UDP, with the MOUNT protocol handled by the same service
// (paper footnote 1: "within NeST, mount is handled by the NFS handler").
//
// Procedures: NULL, GETATTR, LOOKUP, READ, WRITE, CREATE, REMOVE, RENAME,
// MKDIR, RMDIR, READDIR, STATFS; MOUNT: NULL, MNT, UMNT.
//
// Authentication: the paper permits only anonymous access for NFS (GSI is
// Chirp/GridFTP-only), so requests run as the anonymous principal and the
// ACL layer governs what that may do. AUTH_UNIX credentials are parsed for
// framing but never trusted.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>

#include "dispatcher/dispatcher.h"
#include "net/socket.h"
#include "protocol/executor.h"
#include "protocol/xdr.h"

namespace nest::protocol {

// Program numbers / procedures.
constexpr std::uint32_t kNfsProg = 100003;
constexpr std::uint32_t kNfsVers = 2;
constexpr std::uint32_t kMountProg = 100005;
constexpr std::uint32_t kMountVers = 1;

enum NfsProc : std::uint32_t {
  NFSPROC_NULL = 0,
  NFSPROC_GETATTR = 1,
  NFSPROC_LOOKUP = 4,
  NFSPROC_READ = 6,
  NFSPROC_WRITE = 8,
  NFSPROC_CREATE = 9,
  NFSPROC_REMOVE = 10,
  NFSPROC_RENAME = 11,
  NFSPROC_MKDIR = 14,
  NFSPROC_RMDIR = 15,
  NFSPROC_READDIR = 16,
  NFSPROC_STATFS = 17,
};

enum MountProc : std::uint32_t {
  MOUNTPROC_NULL = 0,
  MOUNTPROC_MNT = 1,
  MOUNTPROC_UMNT = 3,
};

enum NfsStat : std::uint32_t {
  NFS_OK = 0,
  NFSERR_PERM = 1,
  NFSERR_NOENT = 2,
  NFSERR_ACCES = 13,
  NFSERR_EXIST = 17,
  NFSERR_NOTDIR = 20,
  NFSERR_ISDIR = 21,
  NFSERR_NOSPC = 28,
  NFSERR_NOTEMPTY = 66,
  NFSERR_STALE = 70,
  // NFSv3's "media loaded by a jukebox/HSM, retry" code — the native way
  // to tell a client that data is being staged from tertiary storage.
  NFSERR_JUKEBOX = 10008,
};

constexpr std::size_t kFhSize = 32;
constexpr std::int64_t kNfsBlockSize = 8192;

NfsStat errc_to_nfs(Errc code) noexcept;

class NfsService {
 public:
  struct Options {
    int port = 0;  // UDP; 0 = ephemeral
  };

  NfsService(dispatcher::Dispatcher& dispatcher, TransferExecutor& executor,
             Options options);
  ~NfsService();

  NEST_NODISCARD Status start();
  void stop();
  uint16_t port() const { return port_; }

 private:
  void run();
  // Handle one datagram; returns the reply bytes.
  std::vector<char> handle(std::span<const char> datagram);
  void handle_nfs(const xdr::RpcCall& call, xdr::Decoder& args,
                  xdr::Encoder& out);
  void handle_mount(const xdr::RpcCall& call, xdr::Decoder& args,
                    xdr::Encoder& out);

  // File-handle registry: u64 id <-> virtual path.
  std::uint64_t handle_for(const std::string& path);
  NEST_NODISCARD Result<std::string> path_for(std::span<const char> fh);
  void encode_fh(xdr::Encoder& out, std::uint64_t id);
  void encode_fattr(xdr::Encoder& out, const std::string& path,
                    const storage::FileStat& st);

  dispatcher::Dispatcher& dispatcher_;
  TransferExecutor& executor_;
  Options options_;
  std::unique_ptr<net::UdpSocket> socket_;
  std::thread worker_;
  std::atomic<bool> stopping_{false};
  uint16_t port_ = 0;

  Mutex mu_{lockrank::Rank::nfs_handles, "nfs.handles"};
  std::map<std::uint64_t, std::string> id_to_path_ GUARDED_BY(mu_);
  std::map<std::string, std::uint64_t> path_to_id_ GUARDED_BY(mu_);
  std::uint64_t next_id_ GUARDED_BY(mu_) = 2;  // 1 is the root handle
};

}  // namespace nest::protocol

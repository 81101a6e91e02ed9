// NfsClient: NFSv2 client over our ONC-RPC/XDR UDP transport — how the
// paper's compute jobs access NeST "via a local file system protocol"
// (Figure 2, step 4) without modification.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/socket.h"
#include "protocol/nfs_handler.h"

namespace nest::client {

class NfsClient {
 public:
  using Fh = std::vector<char>;  // 32-byte file handle

  NEST_NODISCARD
  static Result<NfsClient> connect(const std::string& host, uint16_t port);

  // MOUNT protocol: obtain the root handle for an export.
  NEST_NODISCARD Result<Fh> mount(const std::string& dirpath);

  struct Attr {
    bool is_dir = false;
    std::int64_t size = 0;
    std::int64_t mtime_sec = 0;
  };
  NEST_NODISCARD Result<Attr> getattr(const Fh& fh);
  NEST_NODISCARD
  Result<std::pair<Fh, Attr>> lookup(const Fh& dir, const std::string& name);
  // READ and WRITE reply with the file's post-op attributes; pass `attr`
  // to receive them.
  NEST_NODISCARD
  Result<std::string> read(const Fh& fh, std::int64_t offset,
                           std::int64_t count, Attr* attr = nullptr);
  NEST_NODISCARD
  Status write(const Fh& fh, std::int64_t offset, const std::string& data,
               Attr* attr = nullptr);
  NEST_NODISCARD Result<Fh> create(const Fh& dir, const std::string& name);
  NEST_NODISCARD Status remove(const Fh& dir, const std::string& name);
  NEST_NODISCARD
  Status rename(const Fh& from_dir, const std::string& from_name,
                const Fh& to_dir, const std::string& to_name);
  NEST_NODISCARD Result<Fh> mkdir(const Fh& dir, const std::string& name);
  NEST_NODISCARD Status rmdir(const Fh& dir, const std::string& name);
  NEST_NODISCARD Result<std::vector<std::string>> readdir(const Fh& dir);

  // Whole-file convenience built from 8 KB block RPCs (this is exactly why
  // NFS issues many more requests than HTTP for the same file — the
  // byte-based stride motivation in paper Section 4.2).
  NEST_NODISCARD
  Result<std::string> read_file(const Fh& dir, const std::string& name);
  NEST_NODISCARD
  Status write_file(const Fh& dir, const std::string& name,
                    const std::string& data);

 private:
  NfsClient(net::UdpSocket sock, std::string host, uint16_t port)
      : sock_(std::move(sock)), host_(std::move(host)), port_(port) {}

  // One RPC round trip; returns a decoder positioned at the results.
  NEST_NODISCARD
  Result<std::vector<char>> call(std::uint32_t prog, std::uint32_t vers,
                                 std::uint32_t proc,
                                 const protocol::xdr::Encoder& args);
  NEST_NODISCARD static Status nfs_status(std::uint32_t st);

  net::UdpSocket sock_;
  std::string host_;
  uint16_t port_;
  std::uint32_t next_xid_ = 1;
};

}  // namespace nest::client

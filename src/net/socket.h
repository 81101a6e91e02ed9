// RAII socket primitives for the real (non-simulated) appliance.
// Blocking I/O with optional timeouts. The server is thread-per-connection:
// each connection's handler (the protocol layer) runs on its own thread and
// moves that connection's bulk data blocks inline, in the order the
// transfer manager's scheduler grants them.
//
// Bulk data-path contracts (docs/net.md): send_vecs coalesces a header and
// its body into one writev; send_file moves file bytes kernel-to-kernel
// with sendfile(2), falling back to pread+send on sockets or filesystems
// that refuse it; TcpListener can bind SO_REUSEPORT shards so several
// acceptor threads share one port.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>

#include "common/result.h"

namespace nest::net {

// Process-wide switch for the sendfile(2) data path. Defaults to on; the
// wire-speed bench and the fallback-equivalence tests flip it to compare
// the zero-copy and buffered paths in one process. When off, send_file
// always takes the buffered fallback (bytes and error behaviour are
// contractually identical either way).
bool zero_copy_enabled() noexcept;
void set_zero_copy(bool enabled) noexcept;

// Owned file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = std::exchange(o.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

// Connected TCP stream with buffered line reading.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(Fd fd) : fd_(std::move(fd)) {}

  NEST_NODISCARD
  static Result<TcpStream> connect(const std::string& host, uint16_t port);

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }

  // Read up to buf.size() bytes; 0 means orderly close.
  NEST_NODISCARD Result<std::int64_t> read_some(std::span<char> buf);
  // Read exactly buf.size() bytes (loops); connection_closed on EOF.
  NEST_NODISCARD Status read_exact(std::span<char> buf);
  // Write all bytes.
  NEST_NODISCARD Status write_all(std::span<const char> data);
  NEST_NODISCARD Status write_all(const std::string& s) {
    return write_all(std::span<const char>(s.data(), s.size()));
  }

  // Write every byte of every buffer, coalesced with writev(2) so a small
  // header and its body leave in one syscall (and, with TCP_NODELAY, one
  // segment). Equivalent to write_all over the concatenation.
  NEST_NODISCARD Status send_vecs(std::span<const std::span<const char>> vecs);
  NEST_NODISCARD
  Status send_vecs(std::initializer_list<std::span<const char>> vecs) {
    return send_vecs(std::span<const std::span<const char>>(
        vecs.begin(), vecs.size()));
  }

  // Send `len` bytes of `fd` starting at `offset` straight from the page
  // cache with sendfile(2); no user-space copy. Returns the bytes actually
  // sent — short only when the file ends before `offset + len` (truncated
  // under us). Falls back to a pread+send loop when zero-copy is disabled
  // or the kernel refuses the pairing (EINVAL/ENOSYS); the fallback keeps
  // byte-for-byte and error semantics.
  NEST_NODISCARD
  Result<std::int64_t> send_file(int fd, std::int64_t offset,
                                 std::int64_t len);

  // Read a '\n'-terminated line (strips "\r\n" or "\n"); buffered.
  NEST_NODISCARD Result<std::string> read_line(std::size_t max_len = 64 * 1024);

  // Drop up to `max_len` received bytes without copying them out of the
  // kernel (MSG_TRUNC counts and frees the payload in place). Consumes
  // line-reader readahead first. Returns bytes dropped; 0 means orderly
  // close. For drain-side measurement clients, where a copying reader
  // would itself become the bottleneck being measured.
  NEST_NODISCARD Result<std::int64_t> discard(std::int64_t max_len);

  // SO_RCVLOWAT: park blocking reads until `bytes` are queued, batching
  // reader wake-ups. Only safe on close-delimited streams — a tail
  // shorter than the mark is released by the peer's close, nothing else.
  NEST_NODISCARD Status set_receive_lowat(int bytes);

  // Set a receive timeout (0 disables).
  NEST_NODISCARD Status set_read_timeout(int millis);
  void shutdown_send();

  // Local/peer address as "ip:port" (diagnostics + FTP PASV).
  std::string local_address() const;
  uint16_t local_port() const;

 private:
  Fd fd_;
  std::string buffer_;  // unconsumed bytes past the last line
};

struct ListenOptions {
  int backlog = 64;
  // SO_REUSEPORT: several listeners may bind the same port and the kernel
  // load-balances incoming connections across them — one acceptor thread
  // per shard with no shared accept lock (server sharded-accept mode).
  bool reuseport = false;
};

class TcpListener {
 public:
  // Bind to 127.0.0.1:port; port 0 picks an ephemeral port.
  NEST_NODISCARD static Result<TcpListener> bind(uint16_t port);
  NEST_NODISCARD
  static Result<TcpListener> bind(uint16_t port, const ListenOptions& opts);

  // Errors surface with code busy when transient (EMFILE/ENFILE/ENOBUFS/
  // ENOMEM — fd or buffer exhaustion that retry-with-backoff survives);
  // anything else means the listener itself is gone. ECONNABORTED (peer
  // vanished inside the handshake) is retried internally.
  NEST_NODISCARD Result<TcpStream> accept();
  uint16_t port() const { return port_; }
  int fd() const { return fd_.get(); }
  // Unblocks a pending accept (used for shutdown). Shuts the socket down
  // but keeps the descriptor until destruction, so a concurrent accept()
  // never observes a closed/recycled fd; destroy the listener only after
  // joining the accepting thread.
  void close();

 private:
  TcpListener(Fd fd, uint16_t port) : fd_(std::move(fd)), port_(port) {}
  Fd fd_;
  uint16_t port_ = 0;
};

// Retry pacing for accept loops: exponential backoff on transient accept
// failures (fd exhaustion must not busy-spin a core), reset on the next
// success. Pure policy, unit-testable; the server's accept loops own one
// per acceptor thread.
class AcceptBackoff {
 public:
  static constexpr int kInitialMs = 1;
  static constexpr int kMaxMs = 200;

  // Delay to sleep before the next accept attempt; doubles per consecutive
  // failure, capped at kMaxMs.
  int next_delay_ms() {
    const int d = delay_ms_;
    delay_ms_ = std::min(delay_ms_ * 2, kMaxMs);
    return d;
  }
  void reset() { delay_ms_ = kInitialMs; }

 private:
  int delay_ms_ = kInitialMs;
};

// Connected-UDP endpoint for the NFS/RPC transport.
class UdpSocket {
 public:
  NEST_NODISCARD
  static Result<UdpSocket> bind(uint16_t port);  // 0: ephemeral

  // Receive one datagram; returns sender address for reply.
  NEST_NODISCARD
  Result<std::int64_t> recv_from(std::span<char> buf, std::string& from_ip,
                                 uint16_t& from_port);
  NEST_NODISCARD
  Status send_to(std::span<const char> data, const std::string& ip,
                 uint16_t port);
  NEST_NODISCARD Status set_read_timeout(int millis);
  uint16_t port() const { return port_; }
  // Wake any thread blocked in recv_from (it returns 0). The fd is
  // released only at destruction; join the reader before destroying.
  void close();

 private:
  UdpSocket(Fd fd, uint16_t port) : fd_(std::move(fd)), port_(port) {}
  Fd fd_;
  uint16_t port_ = 0;
};

}  // namespace nest::net

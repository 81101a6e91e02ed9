#include "net/socket.h"

#include "fault/failpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/sendfile.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <vector>

namespace nest::net {
namespace {

std::atomic<bool> g_zero_copy{true};

Error sys_error(const std::string& what) {
  const int err = errno;
  Errc code = Errc::io_error;
  if (err == EAGAIN || err == EWOULDBLOCK) code = Errc::timed_out;
  if (err == ECONNREFUSED || err == ECONNRESET || err == EPIPE)
    code = Errc::connection_closed;
  if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM)
    code = Errc::busy;  // transient resource exhaustion: retryable
  return Error{code, what + ": " + std::strerror(err)};
}

sockaddr_in loopback(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return 0;
  return ntohs(addr.sin_port);
}

}  // namespace

bool zero_copy_enabled() noexcept {
  return g_zero_copy.load(std::memory_order_relaxed);
}

void set_zero_copy(bool enabled) noexcept {
  g_zero_copy.store(enabled, std::memory_order_relaxed);
}

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpStream> TcpStream::connect(const std::string& host, uint16_t port) {
  NEST_FAILPOINT("net.connect", return err);
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return sys_error("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    return Error{Errc::invalid_argument, "bad address " + host};
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    return sys_error("connect " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return TcpStream(std::move(fd));
}

Result<std::int64_t> TcpStream::read_some(std::span<char> buf) {
  NEST_FAILPOINT("net.recv", return err);
  if (!buffer_.empty()) {
    const std::size_t n = std::min(buf.size(), buffer_.size());
    std::memcpy(buf.data(), buffer_.data(), n);
    buffer_.erase(0, n);
    return static_cast<std::int64_t>(n);
  }
  while (true) {
    const ssize_t n = ::recv(fd_.get(), buf.data(), buf.size(), 0);
    if (n >= 0) return static_cast<std::int64_t>(n);
    if (errno == EINTR) continue;
    return sys_error("recv");
  }
}

Status TcpStream::read_exact(std::span<char> buf) {
  std::size_t off = 0;
  while (off < buf.size()) {
    auto n = read_some(buf.subspan(off));
    if (!n.ok()) return Status{n.error()};
    if (*n == 0) return Status{Errc::connection_closed, "eof mid-read"};
    off += static_cast<std::size_t>(*n);
  }
  return {};
}

Status TcpStream::write_all(std::span<const char> data) {
  NEST_FAILPOINT("net.send", return Status{err});
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_.get(), data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status{sys_error("send")};
    }
    off += static_cast<std::size_t>(n);
  }
  return {};
}

Status TcpStream::send_vecs(std::span<const std::span<const char>> vecs) {
  NEST_FAILPOINT("net.writev", return Status{err});
  // iovec count is bounded by IOV_MAX; callers pass a handful (header +
  // body), so a fixed stack array suffices.
  iovec iov[16];
  std::size_t n_iov = 0;
  std::size_t total = 0;
  for (const auto& v : vecs) {
    if (v.empty()) continue;
    if (n_iov == sizeof iov / sizeof iov[0])
      return Status{Errc::invalid_argument, "too many iovecs"};
    iov[n_iov].iov_base = const_cast<char*>(v.data());
    iov[n_iov].iov_len = v.size();
    ++n_iov;
    total += v.size();
  }
  std::size_t sent = 0;
  std::size_t first = 0;  // first iovec with bytes left
  while (sent < total) {
    const ssize_t n = ::writev(fd_.get(), iov + first,
                               static_cast<int>(n_iov - first));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE) return Status{Errc::connection_closed, "writev"};
      return Status{sys_error("writev")};
    }
    sent += static_cast<std::size_t>(n);
    // Consume fully-written iovecs, then trim the partial one.
    std::size_t left = static_cast<std::size_t>(n);
    while (first < n_iov && left >= iov[first].iov_len) {
      left -= iov[first].iov_len;
      ++first;
    }
    if (first < n_iov && left > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + left;
      iov[first].iov_len -= left;
    }
  }
  return {};
}

Result<std::int64_t> TcpStream::send_file(int fd, std::int64_t offset,
                                          std::int64_t len) {
  NEST_FAILPOINT("net.sendfile", return err);
  std::int64_t sent = 0;
  bool use_sendfile = zero_copy_enabled();
  while (sent < len && use_sendfile) {
    off_t off = static_cast<off_t>(offset + sent);
    const ssize_t n = ::sendfile(fd_.get(), fd, &off,
                                 static_cast<std::size_t>(len - sent));
    if (n > 0) {
      sent += n;
      continue;
    }
    if (n == 0) return sent;  // file ended early: short send, caller decides
    const int err_no = errno;
    if (err_no == EINTR || err_no == EAGAIN) continue;
    if (err_no == EINVAL || err_no == ENOSYS || err_no == EOPNOTSUPP) {
      // This fd/socket pairing cannot sendfile; finish buffered.
      use_sendfile = false;
      break;
    }
    return sys_error("sendfile");
  }
  // Buffered fallback (also the whole path when zero-copy is disabled):
  // pread+send in page-sized-multiples, same bytes on the wire.
  std::vector<char> buf;
  while (sent < len) {
    if (buf.empty()) buf.resize(256 * 1024);
    const std::int64_t want = std::min<std::int64_t>(
        static_cast<std::int64_t>(buf.size()), len - sent);
    const ssize_t n = ::pread(fd, buf.data(),
                              static_cast<std::size_t>(want),
                              static_cast<off_t>(offset + sent));
    if (n < 0) {
      if (errno == EINTR) continue;
      return sys_error("sendfile fallback pread");
    }
    if (n == 0) return sent;  // short: file truncated under us
    if (auto s = write_all(std::span<const char>(
            buf.data(), static_cast<std::size_t>(n)));
        !s.ok()) {
      return s.error();
    }
    sent += n;
  }
  return sent;
}

Result<std::string> TcpStream::read_line(std::size_t max_len) {
  NEST_FAILPOINT("net.recv", return err);
  while (true) {
    const std::size_t pos = buffer_.find('\n');
    if (pos != std::string::npos) {
      std::string line = buffer_.substr(0, pos);
      buffer_.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    if (buffer_.size() > max_len)
      return Error{Errc::protocol_error, "line too long"};
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_.get(), chunk, sizeof chunk, 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
        break;
      }
      if (n == 0) return Error{Errc::connection_closed, "eof mid-line"};
      if (errno == EINTR) continue;
      return sys_error("recv");
    }
  }
}

Result<std::int64_t> TcpStream::discard(std::int64_t max_len) {
  NEST_FAILPOINT("net.recv", return err);
  if (max_len <= 0) return std::int64_t{0};
  if (!buffer_.empty()) {
    const auto n = std::min<std::int64_t>(
        max_len, static_cast<std::int64_t>(buffer_.size()));
    buffer_.erase(0, static_cast<std::size_t>(n));
    return n;
  }
  while (true) {
    const ssize_t n = ::recv(fd_.get(), nullptr,
                             static_cast<std::size_t>(max_len), MSG_TRUNC);
    if (n >= 0) return static_cast<std::int64_t>(n);
    if (errno == EINTR) continue;
    return sys_error("recv");
  }
}

Status TcpStream::set_receive_lowat(int bytes) {
  if (::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVLOWAT, &bytes,
                   sizeof bytes) != 0)
    return Status{sys_error("SO_RCVLOWAT")};
  return {};
}

Status TcpStream::set_read_timeout(int millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  if (::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0)
    return Status{sys_error("SO_RCVTIMEO")};
  return {};
}

void TcpStream::shutdown_send() { ::shutdown(fd_.get(), SHUT_WR); }

std::string TcpStream::local_address() const {
  return "127.0.0.1:" + std::to_string(local_port());
}

uint16_t TcpStream::local_port() const { return bound_port(fd_.get()); }

Result<TcpListener> TcpListener::bind(uint16_t port) {
  return bind(port, ListenOptions{});
}

Result<TcpListener> TcpListener::bind(uint16_t port,
                                      const ListenOptions& opts) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return sys_error("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (opts.reuseport &&
      ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) !=
          0) {
    return sys_error("SO_REUSEPORT");
  }
  sockaddr_in addr = loopback(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    return sys_error("bind " + std::to_string(port));
  if (::listen(fd.get(), opts.backlog) != 0) return sys_error("listen");
  const uint16_t actual = bound_port(fd.get());
  return TcpListener(std::move(fd), actual);
}

Result<TcpStream> TcpListener::accept() {
  while (true) {
    // Injected accept *errors* (net.accept_err) model fd exhaustion —
    // EMFILE and friends — before the kernel hands us a connection; the
    // pending connection stays in the backlog for the post-backoff retry.
    NEST_FAILPOINT("net.accept_err", return err);
    const int cfd = ::accept(fd_.get(), nullptr, nullptr);
    if (cfd >= 0) {
      // Injected accept failure drops the fresh connection instead of
      // returning an error: server accept loops treat an accept() error
      // as listener shutdown, and a drill must not kill the acceptor.
      bool drop = false;
      NEST_FAILPOINT("net.accept", drop = true);
      if (drop) {
        ::close(cfd);
        continue;
      }
      const int one = 1;
      ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return TcpStream(Fd(cfd));
    }
    const int err_no = errno;
    if (err_no == EINTR || err_no == ECONNABORTED) continue;
    return sys_error("accept");
  }
}

void TcpListener::close() {
  // close() alone does not wake threads blocked in accept() on Linux;
  // shutdown() does (they return with EINVAL). The descriptor itself is
  // released only at destruction: resetting it here would race the fd
  // read inside a concurrent accept() — the caller joins the acceptor
  // thread between close() and destroying the listener.
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

Result<UdpSocket> UdpSocket::bind(uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_DGRAM, 0));
  if (!fd.valid()) return sys_error("socket");
  sockaddr_in addr = loopback(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    return sys_error("udp bind");
  const uint16_t actual = bound_port(fd.get());
  return UdpSocket(std::move(fd), actual);
}

Result<std::int64_t> UdpSocket::recv_from(std::span<char> buf,
                                          std::string& from_ip,
                                          uint16_t& from_port) {
  NEST_FAILPOINT("net.recv", return err);
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  while (true) {
    const ssize_t n = ::recvfrom(fd_.get(), buf.data(), buf.size(), 0,
                                 reinterpret_cast<sockaddr*>(&addr), &len);
    if (n >= 0) {
      char ip[INET_ADDRSTRLEN] = {};
      ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof ip);
      from_ip = ip;
      from_port = ntohs(addr.sin_port);
      return static_cast<std::int64_t>(n);
    }
    if (errno == EINTR) continue;
    return sys_error("recvfrom");
  }
}

Status UdpSocket::send_to(std::span<const char> data, const std::string& ip,
                          uint16_t port) {
  NEST_FAILPOINT("net.send", return Status{err});
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1)
    return Status{Errc::invalid_argument, "bad ip"};
  const ssize_t n =
      ::sendto(fd_.get(), data.data(), data.size(), 0,
               reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (n < 0) return Status{sys_error("sendto")};
  return {};
}

Status UdpSocket::set_read_timeout(int millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  if (::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0)
    return Status{sys_error("SO_RCVTIMEO")};
  return {};
}

void UdpSocket::close() {
  // Like TcpListener::close(): shutdown() wakes a thread blocked in
  // recv_from (it returns 0), and the descriptor lives until destruction
  // so that reader never races an fd reset. On an unconnected socket
  // shutdown() reports ENOTCONN but still marks it shut.
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

}  // namespace nest::net

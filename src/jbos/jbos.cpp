#include "jbos/jbos.h"

#include <sys/socket.h>

#include <sstream>
#include <vector>

#include "common/string_util.h"

namespace nest::jbos {

namespace {

constexpr std::int64_t kBlock = 64 * 1024;

bool reply(net::TcpStream& s, const std::string& line) {
  return s.write_all(line + "\r\n").ok();
}

// Stream a whole file to a socket (native servers: no scheduler, no gate).
Status send_whole_file(storage::VirtualFs& fs, const std::string& path,
                       net::TcpStream& out) {
  auto handle = fs.open(path);
  if (!handle.ok()) return Status{handle.error()};
  auto st = (*handle)->stat();
  if (!st.ok()) return Status{st.error()};
  const std::int64_t size = st->size;
  std::vector<char> buf(kBlock);
  std::int64_t off = 0;
  while (off < size) {
    const std::int64_t len = std::min<std::int64_t>(kBlock, size - off);
    auto n = (*handle)->pread(
        std::span(buf.data(), static_cast<std::size_t>(len)), off);
    if (!n.ok()) return Status{n.error()};
    if (auto s = out.write_all(std::span<const char>(
            buf.data(), static_cast<std::size_t>(*n)));
        !s.ok()) {
      return s;
    }
    off += *n;
  }
  return {};
}

Status recv_to_file(storage::VirtualFs& fs, const std::string& path,
                    net::TcpStream& in, std::int64_t size) {
  auto handle = fs.create(path);
  if (!handle.ok()) return Status{handle.error()};
  if (auto s = (*handle)->truncate(0); !s.ok()) return s;
  std::vector<char> buf(kBlock);
  std::int64_t off = 0;
  while (size < 0 || off < size) {
    const std::int64_t want =
        size < 0 ? kBlock : std::min<std::int64_t>(kBlock, size - off);
    auto n = in.read_some(std::span(buf.data(),
                                    static_cast<std::size_t>(want)));
    if (!n.ok()) return Status{n.error()};
    if (*n == 0) {
      if (size < 0) return {};  // EOF-terminated stream
      return Status{Errc::connection_closed, "short body"};
    }
    auto w = (*handle)->pwrite(
        std::span<const char>(buf.data(), static_cast<std::size_t>(*n)), off);
    if (!w.ok()) return Status{w.error()};
    off += *n;
  }
  return {};
}

}  // namespace

MiniServer::~MiniServer() { stop(); }

Status MiniServer::start(uint16_t port) {
  auto listener = net::TcpListener::bind(port);
  if (!listener.ok()) return Status{listener.error()};
  port_ = listener->port();
  listener_ = std::make_unique<net::TcpListener>(std::move(listener.value()));
  acceptor_ = std::thread([this] { accept_loop(); });
  return {};
}

void MiniServer::accept_loop() {
  while (!stopping_) {
    auto stream = listener_->accept();
    if (!stream.ok()) return;
    // Timeout setup is advisory: a stream without it still works.
    (void)stream->set_read_timeout(30'000);
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
    std::thread t([this, fd, s = std::move(stream.value())]() mutable {
      serve(s);
      MutexLock inner(conn_mu_);
      conn_fds_.erase(fd);
      finished_.push_back(std::this_thread::get_id());
    });
    connections_.emplace(t.get_id(), std::move(t));
  }
}

void MiniServer::stop() {
  if (stopping_.exchange(true)) return;
  if (listener_) listener_->close();
  if (acceptor_.joinable()) acceptor_.join();
  std::unordered_map<std::thread::id, std::thread> conns;
  {
    MutexLock lock(conn_mu_);
    conns.swap(connections_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& [id, t] : conns) t.join();
}

void MiniHttpServer::serve(net::TcpStream& stream) {
  while (true) {
    auto line = stream.read_line();
    if (!line.ok()) return;
    const auto words = split_ws(*line);
    if (words.size() != 3) return;
    const std::string method = to_lower(words[0]);
    const std::string path = words[1];
    std::int64_t content_length = -1;
    while (true) {
      auto header = stream.read_line();
      if (!header.ok()) return;
      if (header->empty()) break;
      if (starts_with_icase(*header, "content-length:")) {
        content_length =
            parse_int(header->substr(header->find(':') + 1)).value_or(-1);
      }
    }
    if (method == "get" || method == "head") {
      auto st = fs_.stat(path);
      if (!st.ok() || st->is_dir) {
        // Best-effort reply: a dead peer is handled by connection teardown.
        (void)stream.write_all(std::string(
            "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n"));
        return;
      }
      std::ostringstream os;
      os << "HTTP/1.0 200 OK\r\nContent-Length: " << st->size << "\r\n\r\n";
      if (!stream.write_all(os.str()).ok()) return;
      if (method == "get") {
        if (!send_whole_file(fs_, path, stream).ok()) return;
      }
      return;  // HTTP/1.0: one request per connection
    }
    if (method == "put" && writable_ && content_length >= 0) {
      if (!recv_to_file(fs_, path, stream, content_length).ok()) return;
      // Best-effort reply: a dead peer is handled by connection teardown.
      (void)stream.write_all(std::string(
          "HTTP/1.0 201 Created\r\nContent-Length: 0\r\n\r\n"));
      return;
    }
    // Best-effort reply: a dead peer is handled by connection teardown.
    (void)stream.write_all(std::string(
        "HTTP/1.0 405 Method Not Allowed\r\nContent-Length: 0\r\n\r\n"));
    return;
  }
}

void MiniFtpServer::serve(net::TcpStream& stream) {
  if (!reply(stream, "220 jbos ftp ready")) return;
  std::optional<net::TcpListener> pasv;
  bool logged_in = false;
  while (true) {
    auto line = stream.read_line();
    if (!line.ok()) return;
    const auto words = split_ws(*line);
    if (words.empty()) continue;
    const std::string cmd = to_lower(words[0]);
    if (cmd == "quit") {
      reply(stream, "221 bye");
      return;
    }
    if (cmd == "user") {
      reply(stream, "331 any password");
      continue;
    }
    if (cmd == "pass") {
      logged_in = true;
      reply(stream, "230 ok");
      continue;
    }
    if (!logged_in) {
      reply(stream, "530 login first");
      continue;
    }
    if (cmd == "type" || cmd == "noop") {
      reply(stream, "200 ok");
      continue;
    }
    if (cmd == "pasv") {
      auto listener = net::TcpListener::bind(0);
      if (!listener.ok()) {
        reply(stream, "425 no data port");
        continue;
      }
      const uint16_t p = listener->port();
      pasv.emplace(std::move(listener.value()));
      reply(stream, "227 Entering Passive Mode (127,0,0,1," +
                        std::to_string(p >> 8) + "," +
                        std::to_string(p & 0xff) + ")");
      continue;
    }
    if ((cmd == "retr" || cmd == "stor" || cmd == "list") && pasv) {
      reply(stream, "150 opening data connection");
      auto data = pasv->accept();
      pasv.reset();
      if (!data.ok()) {
        reply(stream, "425 data connection failed");
        continue;
      }
      Status s;
      if (cmd == "retr" && words.size() == 2) {
        s = send_whole_file(fs_, words[1], *data);
      } else if (cmd == "stor" && words.size() == 2 && writable_) {
        s = recv_to_file(fs_, words[1], *data, -1);
      } else if (cmd == "list") {
        auto entries = fs_.list(words.size() == 2 ? words[1] : "/");
        if (entries.ok()) {
          std::ostringstream os;
          for (const auto& e : *entries) {
            os << (e.is_dir ? "d " : "f ") << e.size << " " << e.name
               << "\r\n";
          }
          s = data->write_all(os.str());
        } else {
          s = Status{entries.error()};
        }
      } else {
        s = Status{Errc::unsupported, "verb"};
      }
      data->shutdown_send();
      reply(stream, s.ok() ? "226 done" : "550 failed");
      continue;
    }
    reply(stream, "500 unknown");
  }
}

void MiniChirpServer::serve(net::TcpStream& stream) {
  if (!reply(stream, "220 jbos chirp ready")) return;
  while (true) {
    auto line = stream.read_line();
    if (!line.ok()) return;
    const auto words = split_ws(*line);
    if (words.empty()) continue;
    const std::string cmd = to_lower(words[0]);
    if (cmd == "quit") {
      reply(stream, "221 bye");
      return;
    }
    if (cmd == "auth") {  // accepted but meaningless: no auth here
      reply(stream, "230 ok");
      continue;
    }
    if (cmd == "get" && words.size() == 2) {
      auto st = fs_.stat(words[1]);
      if (!st.ok() || st->is_dir) {
        reply(stream, "550 not found");
        continue;
      }
      if (!reply(stream, "150 " + std::to_string(st->size))) return;
      if (!send_whole_file(fs_, words[1], stream).ok()) return;
      continue;
    }
    if (cmd == "put" && words.size() == 3 && writable_) {
      const auto size = parse_int(words[2]);
      if (!size || *size < 0) {
        reply(stream, "501 bad size");
        continue;
      }
      if (!reply(stream, "150 ok")) return;
      if (!recv_to_file(fs_, words[1], stream, *size).ok()) return;
      reply(stream, "226 stored");
      continue;
    }
    if (cmd == "list" && words.size() == 2) {
      auto entries = fs_.list(words[1]);
      if (!entries.ok()) {
        reply(stream, "550 not found");
        continue;
      }
      std::ostringstream os;
      for (const auto& e : *entries) {
        os << (e.is_dir ? "d " : "f ") << e.size << " " << e.name << "\n";
      }
      const std::string payload = os.str();
      if (!reply(stream, "213 " + std::to_string(payload.size()))) return;
      if (!stream.write_all(payload).ok()) return;
      continue;
    }
    reply(stream, "500 unknown");
  }
}

}  // namespace nest::jbos

#include "wire.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <cctype>
#include <optional>
#include <thread>

#include "client/nfs_client.h"
#include "common/string_util.h"
#include "metrics.h"
#include "protocol/gsi.h"

namespace livebench {

using nest::Errc;
using nest::Error;
using nest::Result;
using nest::Status;
using nest::net::TcpStream;

namespace {

constexpr std::size_t kCopyChunk = 256 * 1024;

Status fail(const std::string& what) { return Status{Errc::io_error, what}; }

std::int64_t ns_since_epoch(SteadyClock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// Reads exactly `n` body bytes: hashed against `expect` when given, else
// dropped in the kernel without a user-space copy.
Status consume(TcpStream& s, std::int64_t n, const std::uint64_t* expect) {
  if (expect == nullptr) {
    while (n > 0) {
      auto d = s.discard(n);
      if (!d.ok()) return Status{d.error()};
      if (*d == 0) return fail("connection closed mid-body");
      n -= *d;
    }
    return {};
  }
  thread_local std::vector<char> buf(kCopyChunk);
  Hasher h;
  while (n > 0) {
    const auto chunk =
        static_cast<std::size_t>(std::min<std::int64_t>(n, kCopyChunk));
    if (auto st = s.read_exact(std::span(buf.data(), chunk)); !st.ok())
      return st;
    h.update(std::span<const char>(buf.data(), chunk));
    n -= static_cast<std::int64_t>(chunk);
  }
  if (h.digest() != *expect) return fail("content hash mismatch");
  return {};
}

// Reads to EOF: hashed or drained; returns the byte count.
Result<std::int64_t> consume_to_eof(TcpStream& s, const std::uint64_t* expect) {
  std::int64_t total = 0;
  if (expect == nullptr) {
    while (true) {
      auto d = s.discard(8 * 1024 * 1024);
      if (!d.ok()) return d.error();
      if (*d == 0) return total;
      total += *d;
    }
  }
  thread_local std::vector<char> buf(kCopyChunk);
  Hasher h;
  while (true) {
    auto n = s.read_some(std::span(buf.data(), buf.size()));
    if (!n.ok()) return n.error();
    if (*n == 0) break;
    h.update(std::span<const char>(buf.data(), static_cast<std::size_t>(*n)));
    total += *n;
  }
  if (h.digest() != *expect) return Error{Errc::io_error, "content hash mismatch"};
  return total;
}

struct Reply {
  int code = 0;
  std::string text;
};

Result<Reply> read_reply(TcpStream& s) {
  auto line = s.read_line();
  if (!line.ok()) return line.error();
  Reply r;
  const auto space = line->find(' ');
  r.code = static_cast<int>(
      nest::parse_int(line->substr(0, space)).value_or(0));
  if (space != std::string::npos) r.text = line->substr(space + 1);
  return r;
}

// FTP replies may be multi-line ("211-..."); the last line is "NNN text".
Result<Reply> read_ftp_reply(TcpStream& s) {
  while (true) {
    auto line = s.read_line();
    if (!line.ok()) return line.error();
    if (line->size() >= 4 && std::isdigit(static_cast<unsigned char>((*line)[0])) &&
        (*line)[3] == ' ') {
      return Reply{static_cast<int>(nest::parse_int(line->substr(0, 3)).value_or(0)),
                   line->substr(4)};
    }
  }
}

Result<Reply> command(TcpStream& s, const std::string& line,
                      bool ftp = false) {
  if (auto st = s.write_all(line + "\r\n"); !st.ok()) return st.error();
  return ftp ? read_ftp_reply(s) : read_reply(s);
}

Status expect_code(const Result<Reply>& r, int code, const std::string& what) {
  if (!r.ok()) return Status{r.error()};
  if (r->code != code)
    return fail(what + ": " + std::to_string(r->code) + " " + r->text);
  return {};
}

struct Expect {
  std::int64_t size = 0;
  std::uint64_t hash = 0;
};

Expect expected_read(Workload w, Proto proto, const Op& op, const DataSet& d) {
  if (w == Workload::bulk_fig3) {
    if (proto == Proto::gridftp)
      return {kBulkBytes, d.stor_hash.at(op.file)};
    return {kBulkBytes, d.bulk_hash.at(op.file)};
  }
  return {kSmallBytes, d.small_hash.at(op.file)};
}

std::string read_path(Workload w, Proto proto, const Op& op) {
  if (w == Workload::bulk_fig3)
    return proto == Proto::gridftp ? stor_path(op.file) : bulk_path(op.file);
  return small_path(op.file);
}

// Connect plus the wait for the server's first byte, as one span.
class Dialer {
 public:
  explicit Dialer(SpanSink* sink) : sink_(sink) {}
  Result<TcpStream> open(std::uint16_t port) {
    start_ = SteadyClock::now();
    return dial(port);
  }
  // Closes the span at the first server byte (a greeting or reply line).
  void first_byte() {
    if (sink_ != nullptr) sink_->connect_span(start_, SteadyClock::now());
  }

 private:
  SpanSink* sink_;
  SteadyClock::time_point start_;
};

// --- Chirp ---------------------------------------------------------------

class ChirpSession final : public Session {
 public:
  ChirpSession(Workload w, int session, const DataSet& d)
      : w_(w), session_(session), data_(d) {}

  Status open(std::uint16_t port, const std::string& user, SpanSink* sink) {
    Dialer dialer(sink);
    auto s = dialer.open(port);
    if (!s.ok()) return Status{s.error()};
    ++connects_;
    s_ = std::move(s.value());
    auto greeting = read_reply(s_);
    dialer.first_byte();
    if (auto st = expect_code(greeting, 220, "chirp greeting"); !st.ok())
      return st;
    if (user.empty()) return expect_code(command(s_, "AUTH anonymous"), 230, "auth");
    auto challenge = command(s_, "AUTH " + user);
    if (auto st = expect_code(challenge, 334, "auth"); !st.ok()) return st;
    return expect_code(
        command(s_, "RESPONSE " + nest::protocol::GsiRegistry::respond(
                                      secret_of(user), challenge->text)),
        230, "auth response");
  }

  Status execute(const Op& op, std::int64_t* bytes) override {
    switch (op.kind) {
      case OpKind::read: {
        const Expect e = expected_read(w_, Proto::chirp, op, data_);
        *bytes = e.size;
        return get(read_path(w_, Proto::chirp, op), e, op.verify);
      }
      case OpKind::stat:
        if (w_ == Workload::meta_session)
          return stat(meta_path(session_, op.file), kMetaBytes);
        return stat(small_path(op.file), kSmallBytes);
      case OpKind::lot_create: {
        auto r = command(s_, "LOT CREATE " + std::to_string(kMetaLotBytes) +
                                 " " + std::to_string(kMetaLotSeconds));
        if (auto st = expect_code(r, 200, "lot create"); !st.ok()) return st;
        const auto id = nest::parse_int(r->text);
        if (!id || *id <= 0) return fail("bad lot id: " + r->text);
        lot_ = static_cast<std::uint64_t>(*id);
        return {};
      }
      case OpKind::put: {
        const std::string& body = data_.meta_body.at(session_);
        *bytes = kMetaBytes;
        auto r = command(s_, "PUT " + meta_path(session_, op.file) + " " +
                                 std::to_string(body.size()));
        if (auto st = expect_code(r, 150, "put"); !st.ok()) return st;
        if (auto st = s_.write_all(body); !st.ok()) return st;
        auto done = read_reply(s_);
        if (auto st = expect_code(done, 226, "put"); !st.ok()) return st;
        if (done->text != "stored " + std::to_string(body.size()))
          return fail("put stored: " + done->text);
        return {};
      }
      case OpKind::get:
        *bytes = kMetaBytes;
        return get(meta_path(session_, op.file),
                   Expect{kMetaBytes, data_.meta_hash.at(session_)}, true);
      case OpKind::unlink:
        return expect_code(command(s_, "UNLINK " + meta_path(session_, op.file)),
                           200, "unlink");
      case OpKind::lot_terminate:
        return expect_code(
            command(s_, "LOT TERMINATE " + std::to_string(lot_)), 200,
            "lot terminate");
      case OpKind::stor: break;
    }
    return fail("op not spoken by chirp");
  }

  Result<std::string> lot_list() {
    auto r = command(s_, "LOT LIST");
    if (auto st = expect_code(r, 213, "lot list"); !st.ok()) return st.error();
    const auto len = nest::parse_int(r->text);
    if (!len || *len < 0) return Error{Errc::protocol_error, "bad 213"};
    std::string payload(static_cast<std::size_t>(*len), '\0');
    if (auto st = s_.read_exact(std::span(payload.data(), payload.size()));
        !st.ok()) {
      return st.error();
    }
    return payload;
  }

 private:
  Status get(const std::string& path, const Expect& e, bool verify) {
    auto r = command(s_, "GET " + path);
    if (auto st = expect_code(r, 150, "get " + path); !st.ok()) return st;
    if (nest::parse_int(r->text).value_or(-1) != e.size)
      return fail("get size " + r->text);
    return consume(s_, e.size, verify ? &e.hash : nullptr);
  }

  Status stat(const std::string& path, std::int64_t size) {
    auto r = command(s_, "STAT " + path);
    if (auto st = expect_code(r, 200, "stat " + path); !st.ok()) return st;
    const auto words = nest::split_ws(r->text);
    if (words.size() < 2 || nest::parse_int(words[1]).value_or(-1) != size)
      return fail("stat reply " + r->text);
    return {};
  }

  Workload w_;
  int session_;
  const DataSet& data_;
  TcpStream s_;
  std::uint64_t lot_ = 0;
};

// --- HTTP ----------------------------------------------------------------

struct HttpHead {
  int status = 0;
  std::int64_t content_length = -1;
  bool keep_alive = false;
};

Result<HttpHead> read_http_head(TcpStream& s, Dialer* dialer) {
  auto status = s.read_line();
  if (dialer != nullptr) dialer->first_byte();
  if (!status.ok()) return status.error();
  const auto words = nest::split_ws(*status);
  if (words.size() < 2) return Error{Errc::protocol_error, "bad status line"};
  HttpHead h;
  h.status = static_cast<int>(nest::parse_int(words[1]).value_or(0));
  while (true) {
    auto header = s.read_line();
    if (!header.ok()) return header.error();
    if (header->empty()) break;
    const auto colon = header->find(':');
    if (colon == std::string::npos) continue;
    const std::string key = nest::to_lower(header->substr(0, colon));
    const std::string value(nest::trim(header->substr(colon + 1)));
    if (key == "content-length") {
      h.content_length = nest::parse_int(value).value_or(-1);
    } else if (key == "connection") {
      h.keep_alive = nest::to_lower(value) == "keep-alive";
    }
  }
  return h;
}

class HttpSession final : public Session {
 public:
  HttpSession(Workload w, const DataSet& d) : w_(w), data_(d) {}

  Status open(std::uint16_t port, SpanSink* sink) {
    Dialer dialer(sink);
    auto s = dialer.open(port);
    if (!s.ok()) return Status{s.error()};
    ++connects_;
    s_ = std::move(s.value());
    // The first reply byte closes the connect span; HTTP sends nothing
    // before a request, so the span ends with the first op's status line.
    pending_dialer_ = sink != nullptr ? std::optional<Dialer>(dialer)
                                      : std::nullopt;
    return {};
  }

  Status execute(const Op& op, std::int64_t* bytes) override {
    const bool head = op.kind == OpKind::stat;
    const std::string path = read_path(w_, Proto::http, op);
    const std::string req = std::string(head ? "HEAD " : "GET ") + path +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                            "Connection: keep-alive\r\n\r\n";
    if (auto st = s_.write_all(req); !st.ok()) return st;
    auto h = read_http_head(s_, pending_dialer_ ? &*pending_dialer_ : nullptr);
    pending_dialer_.reset();
    if (!h.ok()) return Status{h.error()};
    const Expect e = expected_read(w_, Proto::http, op, data_);
    if (h->status != 200) return fail("http status " + std::to_string(h->status));
    if (!h->keep_alive) return fail("server dropped keep-alive");
    if (h->content_length != e.size)
      return fail("content-length " + std::to_string(h->content_length));
    if (head) return {};
    *bytes = e.size;
    return consume(s_, e.size, op.verify ? &e.hash : nullptr);
  }

 private:
  Workload w_;
  const DataSet& data_;
  TcpStream s_;
  std::optional<Dialer> pending_dialer_;
};

// One HTTP/1.0 GET per connection: connect, request, reply, server close.
class ChurnSession final : public Session {
 public:
  ChurnSession(std::uint16_t port, const DataSet& d, SpanSink* sink)
      : port_(port), data_(d), sink_(sink) {}

  Status execute(const Op& op, std::int64_t* bytes) override {
    Dialer dialer(sink_);
    auto s = dialer.open(port_);
    if (!s.ok()) return Status{s.error()};
    ++connects_;
    const std::string req =
        "GET " + small_path(op.file) + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
    if (auto st = s->write_all(req); !st.ok()) return st;
    auto h = read_http_head(*s, &dialer);
    if (!h.ok()) return Status{h.error()};
    if (h->status != 200) return fail("http status " + std::to_string(h->status));
    if (h->content_length != kSmallBytes)
      return fail("content-length " + std::to_string(h->content_length));
    const std::uint64_t expect = data_.small_hash.at(op.file);
    if (auto st = consume(*s, kSmallBytes, op.verify ? &expect : nullptr);
        !st.ok()) {
      return st;
    }
    *bytes = kSmallBytes;
    // HTTP/1.0 without keep-alive: the server closes after the reply.
    char extra = 0;
    auto tail = s->read_some(std::span(&extra, 1));
    if (!tail.ok()) return Status{tail.error()};
    if (*tail != 0) return fail("bytes after the body");
    return {};
  }

 private:
  std::uint16_t port_;
  const DataSet& data_;
  SpanSink* sink_;
};

// --- NFS (ONC-RPC over UDP) ---------------------------------------------

class NfsSession final : public Session {
 public:
  NfsSession(Workload w, const DataSet& d) : w_(w), data_(d) {}

  Status open(std::uint16_t port) {
    auto c = nest::client::NfsClient::connect("127.0.0.1", port);
    if (!c.ok()) return Status{c.error()};
    client_ = std::make_unique<nest::client::NfsClient>(std::move(c.value()));
    auto root = client_->mount("/");
    if (!root.ok()) return Status{root.error()};
    const bool bulk = w_ == Workload::bulk_fig3;
    auto dir = client_->lookup(*root, bulk ? "bulk" : "small");
    if (!dir.ok()) return Status{dir.error()};
    dir_ = dir->first;
    // Resolve every handle up front so an op is exactly its READ RPCs.
    const std::uint32_t files = bulk ? kBulkFiles : kSmallFiles;
    for (std::uint32_t i = 0; i < files; ++i) {
      const std::string path = bulk ? bulk_path(i) : small_path(i);
      auto fh = client_->lookup(dir_, path.substr(path.rfind('/') + 1));
      if (!fh.ok()) return Status{fh.error()};
      handles_.push_back(fh->first);
    }
    return {};
  }

  Status execute(const Op& op, std::int64_t* bytes) override {
    const Expect e = expected_read(w_, Proto::nfs, op, data_);
    if (op.kind == OpKind::stat) {
      const std::string path = small_path(op.file);
      auto r = client_->lookup(dir_, path.substr(path.rfind('/') + 1));
      if (!r.ok()) return Status{r.error()};
      if (r->second.size != kSmallBytes) return fail("lookup size");
      return {};
    }
    const auto& fh = handles_.at(op.file);
    Hasher h;
    std::int64_t off = 0;
    while (off < e.size) {
      auto chunk = client_->read(fh, off, nest::protocol::kNfsBlockSize);
      if (!chunk.ok()) return Status{chunk.error()};
      const auto want =
          std::min<std::int64_t>(nest::protocol::kNfsBlockSize, e.size - off);
      if (static_cast<std::int64_t>(chunk->size()) != want)
        return fail("nfs short read at " + std::to_string(off));
      if (op.verify) h.update(std::span<const char>(chunk->data(), chunk->size()));
      off += want;
    }
    if (op.verify && h.digest() != e.hash) return fail("content hash mismatch");
    *bytes = e.size;
    return {};
  }

 private:
  Workload w_;
  const DataSet& data_;
  std::unique_ptr<nest::client::NfsClient> client_;
  nest::client::NfsClient::Fh dir_;
  std::vector<nest::client::NfsClient::Fh> handles_;
};

// --- GridFTP ---------------------------------------------------------------

class GridFtpSession final : public Session {
 public:
  GridFtpSession(const DataSet& d, SpanSink* sink) : data_(d), sink_(sink) {}

  Status open(std::uint16_t port, const std::string& user) {
    Dialer dialer(sink_);
    auto s = dialer.open(port);
    if (!s.ok()) return Status{s.error()};
    ++connects_;
    ctl_ = std::move(s.value());
    auto greeting = read_ftp_reply(ctl_);
    dialer.first_byte();
    if (auto st = expect_code(greeting, 220, "gridftp greeting"); !st.ok())
      return st;
    auto challenge = command(ctl_, "AUTH GSI", true);
    if (auto st = expect_code(challenge, 334, "auth gsi"); !st.ok()) return st;
    return expect_code(
        command(ctl_,
                "ADAT " + user + " " +
                    nest::protocol::GsiRegistry::respond(secret_of(user),
                                                         challenge->text),
                true),
        235, "adat");
  }

  Status execute(const Op& op, std::int64_t* bytes) override {
    auto port = pasv();
    if (!port.ok()) return Status{port.error()};
    const std::string path = stor_path(op.file);
    if (op.kind == OpKind::stor) {
      const std::string& body = data_.stor_body.at(op.file);
      if (auto st = expect_code(command(ctl_, "STOR " + path, true), 150, "stor");
          !st.ok()) {
        return st;
      }
      Dialer dialer(sink_);
      auto data = dialer.open(*port);
      if (!data.ok()) return Status{data.error()};
      dialer.first_byte();  // STOR's data channel never speaks first
      ++connects_;
      if (auto st = data->write_all(body); !st.ok()) return st;
      data->shutdown_send();
      auto done = read_ftp_reply(ctl_);
      if (auto st = expect_code(done, 226, "stor"); !st.ok()) return st;
      if (done->text != "stored " + std::to_string(body.size()) + " bytes")
        return fail("stor: " + done->text);
      *bytes = static_cast<std::int64_t>(body.size());
      return {};
    }
    auto begin = command(ctl_, "RETR " + path, true);
    if (auto st = expect_code(begin, 150, "retr"); !st.ok()) return st;
    Dialer dialer(sink_);
    auto data = dialer.open(*port);
    if (!data.ok()) return Status{data.error()};
    ++connects_;
    pollfd first{data->fd(), POLLIN, 0};
    if (::poll(&first, 1, kDeadlineMs) <= 0) return fail("retr: no data");
    dialer.first_byte();
    const std::uint64_t expect = data_.stor_hash.at(op.file);
    if (!op.verify) {
      // Close-delimited stream: the low-water mark only batches wake-ups.
      if (auto st = data->set_receive_lowat(256 * 1024); !st.ok()) return st;
    }
    auto got = consume_to_eof(*data, op.verify ? &expect : nullptr);
    if (!got.ok()) return Status{got.error()};
    if (*got != kBulkBytes) return fail("retr got " + std::to_string(*got));
    if (auto st = expect_code(read_ftp_reply(ctl_), 226, "retr"); !st.ok())
      return st;
    *bytes = *got;
    return {};
  }

 private:
  Result<std::uint16_t> pasv() {
    auto r = command(ctl_, "PASV", true);
    if (auto st = expect_code(r, 227, "pasv"); !st.ok()) return st.error();
    const auto open = r->text.find('(');
    const auto close = r->text.find(')');
    if (open == std::string::npos || close == std::string::npos)
      return Error{Errc::protocol_error, r->text};
    const auto parts = nest::split(r->text.substr(open + 1, close - open - 1), ',');
    if (parts.size() != 6) return Error{Errc::protocol_error, r->text};
    return static_cast<std::uint16_t>(nest::parse_int(parts[4]).value_or(0) * 256 +
                                      nest::parse_int(parts[5]).value_or(0));
  }

  const DataSet& data_;
  SpanSink* sink_;
  TcpStream ctl_;
};

}  // namespace

void SpanSink::connect_span(SteadyClock::time_point start,
                            SteadyClock::time_point end) {
  if (spans == nullptr) return;
  spans->push_back(SpanRec{SpanRec::connect, 0, current_op,
                           ns_since_epoch(start), ns_since_epoch(end)});
}

Result<TcpStream> dial(std::uint16_t port) {
  auto s = TcpStream::connect("127.0.0.1", port);
  if (!s.ok()) return s.error();
  if (auto st = s->set_read_timeout(kDeadlineMs); !st.ok()) return st.error();
  timeval tv{};
  tv.tv_sec = kDeadlineMs / 1000;
  tv.tv_usec = (kDeadlineMs % 1000) * 1000;
  if (::setsockopt(s->fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv) != 0)
    return Error{Errc::io_error, "SO_SNDTIMEO"};
  return s;
}

Result<std::unique_ptr<Session>> open_session(Workload w, int session,
                                              const Ports& ports,
                                              const DataSet& data,
                                              SpanSink* sink) {
  const SessionSpec spec = sessions_of(w).at(static_cast<std::size_t>(session));
  if (w == Workload::conn_churn)
    return std::unique_ptr<Session>(new ChurnSession(ports.http, data, sink));
  switch (spec.proto) {
    case Proto::chirp: {
      auto s = std::make_unique<ChirpSession>(w, session, data);
      if (auto st = s->open(ports.chirp, spec.user, sink); !st.ok())
        return st.error();
      return std::unique_ptr<Session>(std::move(s));
    }
    case Proto::http: {
      auto s = std::make_unique<HttpSession>(w, data);
      if (auto st = s->open(ports.http, sink); !st.ok()) return st.error();
      return std::unique_ptr<Session>(std::move(s));
    }
    case Proto::nfs: {
      auto s = std::make_unique<NfsSession>(w, data);
      if (auto st = s->open(ports.nfs); !st.ok()) return st.error();
      return std::unique_ptr<Session>(std::move(s));
    }
    case Proto::gridftp: {
      auto s = std::make_unique<GridFtpSession>(data, sink);
      if (auto st = s->open(ports.gridftp, spec.user); !st.ok())
        return st.error();
      return std::unique_ptr<Session>(std::move(s));
    }
  }
  return Error{Errc::invalid_argument, "unknown protocol"};
}

Result<std::vector<std::uint64_t>> list_lot_ids(std::uint16_t chirp_port) {
  DataSet none;
  ChirpSession root(Workload::meta_session, 0, none);
  if (auto st = root.open(chirp_port, "root", nullptr); !st.ok())
    return st.error();
  auto text = root.lot_list();
  if (!text.ok()) return text.error();
  std::vector<std::uint64_t> ids;
  for (const auto& line : nest::split(*text, '\n')) {
    if (line.rfind("id=", 0) != 0) continue;
    ids.push_back(static_cast<std::uint64_t>(
        nest::parse_int(nest::split_ws(line.substr(3)).at(0)).value_or(0)));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Result<std::string> http_fetch(std::uint16_t port, const std::string& path) {
  auto s = dial(port);
  if (!s.ok()) return s.error();
  if (auto st = s->write_all("GET " + path + " HTTP/1.0\r\n\r\n"); !st.ok())
    return st.error();
  auto h = read_http_head(*s, nullptr);
  if (!h.ok()) return h.error();
  if (h->status != 200)
    return Error{Errc::io_error, path + ": status " + std::to_string(h->status)};
  if (h->content_length < 0) return Error{Errc::protocol_error, "no length"};
  std::string body(static_cast<std::size_t>(h->content_length), '\0');
  if (auto st = s->read_exact(std::span(body.data(), body.size())); !st.ok())
    return st.error();
  return body;
}

WireStats run_wire(const WirePlan& plan) {
  WireStats out;
  out.sessions.resize(kSessions);
  std::vector<SteadyClock::time_point> last_done(kSessions, plan.start);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      SessionStats& st = out.sessions[static_cast<std::size_t>(i)];
      st.proto = sessions_of(plan.workload).at(static_cast<std::size_t>(i)).proto;
      // Sized up front so the traced and untraced passes pay the same
      // (nil) allocation cost while timing. A churn lifetime may start
      // after its deadline: then the window is empty.
      const double window_s = std::max(
          0.0, std::chrono::duration<double>(plan.end - plan.start).count());
      auto expect = static_cast<std::size_t>(window_s * 40'000);
      if (plan.max_ops_per_session > 0) {
        expect = std::min(
            expect, static_cast<std::size_t>(plan.max_ops_per_session));
      }
      st.samples.reserve(expect);
      if (plan.traced) st.spans.reserve(expect);
      OpStream& stream = plan.streams->at(static_cast<std::size_t>(i));
      SpanSink sink;
      if (plan.traced) sink.spans = &st.spans;
      const int cycle = cycle_len(plan.workload, st.proto);
      std::unique_ptr<Session> session;
      std::int64_t connects_closed = 0;
      std::int64_t sent = 0;
      auto note_error = [&st](const Status& s) {
        if (st.first_error.empty()) st.first_error = s.to_string();
      };
      while (true) {
        if (sent % cycle == 0) {
          if (plan.max_ops_per_session > 0 &&
              sent >= plan.max_ops_per_session) {
            break;
          }
          if (SteadyClock::now() >= plan.end) break;
        }
        if (session == nullptr) {
          if (SteadyClock::now() >= plan.end) break;  // even mid-cycle
          auto opened = open_session(plan.workload, i, plan.ports, *plan.data,
                                     plan.traced ? &sink : nullptr);
          if (!opened.ok()) {
            ++st.ops_total;
            ++st.ops;
            ++st.failed;
            note_error(Status{opened.error()});
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            continue;
          }
          session = std::move(opened.value());
        }
        const Op op = stream.next();
        ++sent;
        std::int64_t bytes = 0;
        if (plan.traced) {
          sink.current_op = static_cast<std::int32_t>(st.spans.size());
          st.spans.push_back(SpanRec{SpanRec::op,
                                     static_cast<std::uint8_t>(op.kind), -1,
                                     0, 0});
        }
        const auto t0 = SteadyClock::now();
        const Status s = session->execute(op, &bytes);
        const auto t1 = SteadyClock::now();
        if (plan.traced) {
          SpanRec& span = st.spans[static_cast<std::size_t>(sink.current_op)];
          span.start_ns = ns_since_epoch(t0);
          span.end_ns = ns_since_epoch(t1);
          sink.current_op = -1;
        }
        ++st.ops_total;
        // An op counts once it completes inside the window (so each slice
        // holds the completions it saw); a warm-up op that fails still
        // counts: every failure is reported.
        const bool in_window = t1 >= plan.start;
        if (in_window || !s.ok()) ++st.ops;
        if (in_window) {
          st.samples.push_back(OpSample{
              static_cast<float>(
                  std::chrono::duration<double, std::micro>(t1 - t0).count()),
              static_cast<float>(
                  std::chrono::duration<double>(t1 - plan.start).count()),
              static_cast<std::int32_t>(s.ok() ? bytes : 0), s.ok()});
          last_done[static_cast<std::size_t>(i)] = t1;
          if (s.ok()) st.bytes += bytes;
        }
        if (!s.ok()) {
          ++st.failed;
          note_error(s);
          connects_closed += session->connects();
          session.reset();  // reconnect before the next op
        }
      }
      st.connects = connects_closed + (session ? session->connects() : 0);
    });
  }
  for (auto& t : threads) t.join();
  const auto last = *std::max_element(last_done.begin(), last_done.end());
  out.elapsed_s = std::chrono::duration<double>(last - plan.start).count();
  return out;
}

}  // namespace livebench

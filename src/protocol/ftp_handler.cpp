#include "protocol/ftp_handler.h"

#include <cstring>
#include <optional>
#include <sstream>
#include <vector>

#include "common/string_util.h"
#include "obs/trace.h"

namespace nest::protocol {

namespace {

bool reply(net::TcpStream& s, const std::string& line) {
  return s.write_all(line + "\r\n").ok();
}

int errc_to_ftp(Errc code) {
  switch (code) {
    case Errc::not_found: return 550;
    case Errc::permission_denied:
    case Errc::not_authenticated: return 530;
    case Errc::no_space:
    case Errc::lot_expired: return 552;
    case Errc::exists: return 553;
    case Errc::busy:
    case Errc::staging: return 450;  // "file unavailable, try again" (tape)
    case Errc::invalid_argument:
    case Errc::protocol_error: return 501;
    default: return 550;
  }
}

std::string ftp_fail(const Status& s) {
  return std::to_string(errc_to_ftp(s.code())) + " " + s.to_string();
}

// Session-scoped data-channel setup: PASV listener or PORT target.
struct DataChannel {
  std::optional<net::TcpListener> pasv;
  std::string port_ip;
  uint16_t port_port = 0;

  bool configured() const { return pasv.has_value() || port_port != 0; }

  Result<net::TcpStream> open() {
    if (pasv) {
      auto data = pasv->accept();
      pasv.reset();
      return data;
    }
    if (port_port != 0) {
      auto data = net::TcpStream::connect(port_ip, port_port);
      port_port = 0;
      return data;
    }
    return Error{Errc::protocol_error, "use PASV or PORT first"};
  }
};

}  // namespace

Status ModeEBlock::send(net::TcpStream& s, std::span<const char> data,
                        std::int64_t offset, bool eof) {
  char header[17];
  header[0] = eof ? kEofFlag : 0;
  const auto put64 = [&](int at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      header[at + i] = static_cast<char>((v >> (56 - 8 * i)) & 0xff);
    }
  };
  put64(1, static_cast<std::uint64_t>(data.size()));
  put64(9, static_cast<std::uint64_t>(offset));
  // Header and payload leave in one writev: mode E blocks are small and
  // frequent, so the extra syscall per block is pure overhead.
  return s.send_vecs({std::span<const char>(header, 17), data});
}

Result<bool> ModeEBlock::recv(net::TcpStream& s, std::vector<char>& data,
                              std::int64_t& offset) {
  char header[17];
  if (auto st = s.read_exact(std::span(header, 17)); !st.ok())
    return Error{st.error()};
  const auto get64 = [&](int at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v = (v << 8) | static_cast<unsigned char>(header[at + i]);
    }
    return v;
  };
  const std::uint64_t len = get64(1);
  offset = static_cast<std::int64_t>(get64(9));
  // An attacker controls this 64-bit length; refuse anything beyond a
  // sane block bound instead of attempting the allocation.
  if (len > kMaxBlockBytes) {
    return Error{Errc::protocol_error, "mode E block too large"};
  }
  data.resize(len);
  if (len > 0) {
    if (auto st = s.read_exact(std::span(data.data(), data.size()));
        !st.ok()) {
      return Error{st.error()};
    }
  }
  return (header[0] & kEofFlag) == 0;
}

void FtpHandler::serve(net::TcpStream& stream) {
  if (!reply(stream, gridftp_ ? "220 nest GridFTP server ready"
                              : "220 nest FTP server ready")) {
    return;
  }

  storage::Principal who;
  who.protocol = name();
  bool logged_in = false;
  std::string cwd = "/";
  char mode = 'S';
  std::int64_t restart_offset = 0;  // REST: next RETR resumes here
  DataChannel data_chan;
  const std::string proto = name();

  auto resolve = [&](const std::string& p) {
    return p.empty() || p[0] != '/' ? join_path(cwd, p) : p;
  };

  while (true) {
    auto line_r = stream.read_line();
    if (!line_r.ok()) return;
    const std::string line = std::string(trim(*line_r));
    if (line.empty()) continue;
    const auto words = split_ws(line);
    const std::string cmd = to_lower(words[0]);

    if (cmd == "quit") {
      reply(stream, "221 bye");
      return;
    }
    if (cmd == "noop") {
      reply(stream, "200 ok");
      continue;
    }
    if (cmd == "syst") {
      reply(stream, "215 UNIX Type: L8");
      continue;
    }
    if (cmd == "feat") {
      if (gridftp_) {
        // Best-effort reply: a dead control channel fails the next read.
        (void)stream.write_all(
            std::string("211-Features:\r\n AUTH GSI\r\n"
                        " MODE E\r\n PARALLEL\r\n211 end\r\n"));
      } else {
        // Best-effort reply: a dead control channel fails the next read.
        (void)stream.write_all(
            std::string("211-Features:\r\n PASV\r\n211 end\r\n"));
      }
      continue;
    }
    if (cmd == "type") {
      reply(stream, "200 type set");
      continue;
    }
    if (cmd == "opts") {
      reply(stream, "200 options accepted");
      continue;
    }
    if (cmd == "mode" && words.size() == 2) {
      const char m = static_cast<char>(std::toupper(
          static_cast<unsigned char>(words[1][0])));
      if (m == 'S' || (m == 'E' && gridftp_)) {
        mode = m;
        reply(stream, "200 mode set");
      } else {
        reply(stream, "504 mode not supported");
      }
      continue;
    }

    if (cmd == "user") {
      if (gridftp_) {
        reply(stream, "530 use AUTH GSI");
        continue;
      }
      if (words.size() == 2 && to_lower(words[1]) == "anonymous" &&
          ctx_.allow_anonymous) {
        reply(stream, "331 send email as password");
      } else {
        reply(stream, "530 only anonymous FTP is allowed");
      }
      continue;
    }
    if (cmd == "pass") {
      if (gridftp_) {
        reply(stream, "530 use AUTH GSI");
        continue;
      }
      logged_in = true;
      who = storage::Principal{.name = "",
                               .groups = {},
                               .authenticated = false,
                               .protocol = "ftp"};
      reply(stream, "230 anonymous login ok");
      continue;
    }
    if (cmd == "auth" && gridftp_) {
      if (words.size() != 2 || to_lower(words[1]) != "gsi") {
        reply(stream, "504 only GSI");
        continue;
      }
      const std::string challenge = ctx_.gsi->make_challenge();
      if (!reply(stream, "334 " + challenge)) return;
      auto adat = stream.read_line();
      if (!adat.ok()) return;
      const auto aw = split_ws(*adat);
      if (aw.size() != 3 || to_lower(aw[0]) != "adat") {
        reply(stream, "501 expected ADAT <subject> <response>");
        continue;
      }
      auto principal = ctx_.gsi->verify(aw[1], challenge, aw[2], "gridftp");
      if (!principal.ok()) {
        reply(stream, "535 " + principal.error().to_string());
        continue;
      }
      who = std::move(principal.value());
      logged_in = true;
      reply(stream, "235 GSI authentication ok");
      continue;
    }

    if (!logged_in) {
      reply(stream, gridftp_ ? "530 authenticate with AUTH GSI"
                             : "530 log in with USER anonymous");
      continue;
    }

    if (cmd == "pwd") {
      reply(stream, "257 \"" + cwd + "\"");
      continue;
    }
    if (cmd == "cwd" && words.size() == 2) {
      const std::string target = normalize_path(resolve(words[1]));
      auto st = ctx_.dispatcher->storage().stat(who, target);
      if (st.ok() && st->is_dir) {
        cwd = target;
        reply(stream, "250 ok");
      } else {
        reply(stream, st.ok() ? "550 not a directory"
                              : ftp_fail(Status{st.error()}));
      }
      continue;
    }
    if (cmd == "cdup") {
      cwd = parent_path(cwd);
      reply(stream, "250 ok");
      continue;
    }
    if (cmd == "pasv") {
      auto listener = net::TcpListener::bind(0);
      if (!listener.ok()) {
        reply(stream, "425 cannot open data port");
        continue;
      }
      const uint16_t p = listener->port();
      data_chan.pasv.emplace(std::move(listener.value()));
      data_chan.port_port = 0;
      std::ostringstream os;
      os << "227 Entering Passive Mode (127,0,0,1," << (p >> 8) << ","
         << (p & 0xff) << ")";
      reply(stream, os.str());
      continue;
    }
    if (cmd == "port" && words.size() == 2) {
      const auto parts = split(words[1], ',');
      if (parts.size() != 6) {
        reply(stream, "501 bad PORT");
        continue;
      }
      data_chan.port_ip = parts[0] + "." + parts[1] + "." + parts[2] + "." +
                          parts[3];
      data_chan.port_port = static_cast<uint16_t>(
          parse_int(parts[4]).value_or(0) * 256 +
          parse_int(parts[5]).value_or(0));
      data_chan.pasv.reset();
      reply(stream, "200 PORT ok");
      continue;
    }

    NestRequest req;
    req.principal = who;
    req.protocol = proto;

    if (cmd == "rest" && words.size() == 2) {
      const auto pos = parse_int(words[1]);
      if (!pos || *pos < 0) {
        reply(stream, "501 bad restart position");
        continue;
      }
      restart_offset = *pos;
      reply(stream, "350 restarting at " + std::to_string(*pos));
      continue;
    }
    if (cmd == "size" && words.size() == 2) {
      req.op = NestOp::stat;
      req.path = resolve(words[1]);
      const auto r = ctx_.dispatcher->execute(req);
      reply(stream, r.status.ok() ? "213 " + std::to_string(r.value)
                                  : ftp_fail(r.status));
      continue;
    }
    if (cmd == "dele" && words.size() == 2) {
      req.op = NestOp::unlink;
      req.path = resolve(words[1]);
      const auto r = ctx_.dispatcher->execute(req);
      reply(stream, r.status.ok() ? "250 deleted" : ftp_fail(r.status));
      continue;
    }
    if (cmd == "mkd" && words.size() == 2) {
      req.op = NestOp::mkdir;
      req.path = resolve(words[1]);
      const auto r = ctx_.dispatcher->execute(req);
      reply(stream, r.status.ok() ? "257 created" : ftp_fail(r.status));
      continue;
    }
    if (cmd == "rmd" && words.size() == 2) {
      req.op = NestOp::rmdir;
      req.path = resolve(words[1]);
      const auto r = ctx_.dispatcher->execute(req);
      reply(stream, r.status.ok() ? "250 removed" : ftp_fail(r.status));
      continue;
    }

    if ((cmd == "list" || cmd == "nlst")) {
      obs::Span pspan(obs::Layer::protocol, "list");
      req.op = NestOp::list;
      req.path = words.size() >= 2 ? resolve(words[1]) : cwd;
      const auto r = ctx_.dispatcher->execute(req);
      if (!r.status.ok()) {
        reply(stream, ftp_fail(r.status));
        continue;
      }
      reply(stream, "150 opening data connection");
      auto data = data_chan.open();
      if (!data.ok()) {
        reply(stream, "425 cannot open data connection");
        continue;
      }
      // Best-effort: a dead data channel reads client-side as a torn listing.
      (void)data->write_all(r.text);
      data->shutdown_send();
      reply(stream, "226 transfer complete");
      continue;
    }

    if (cmd == "retr" && words.size() == 2) {
      obs::Span pspan(obs::Layer::protocol, "get");
      req.op = NestOp::get;
      req.path = resolve(words[1]);
      auto ticket = ctx_.dispatcher->approve_get(req);
      if (!ticket.ok()) {
        reply(stream, ftp_fail(Status{ticket.error()}));
        continue;
      }
      reply(stream, "150 opening data connection (" +
                        std::to_string(ticket->size) + " bytes)");
      auto data = data_chan.open();
      if (!data.ok()) {
        reply(stream, "425 cannot open data connection");
        continue;
      }
      const std::int64_t rest = std::min(restart_offset, ticket->size);
      restart_offset = 0;  // REST applies to exactly one transfer
      Status sent;
      if (mode == 'E') {
        // Extended block mode: stream gated blocks with framing headers.
        std::vector<char> buf(
            static_cast<std::size_t>(ctx_.executor->block_bytes()));
        std::int64_t off = rest;
        while (off < ticket->size && sent.ok()) {
          const auto len = std::min<std::int64_t>(
              static_cast<std::int64_t>(buf.size()), ticket->size - off);
          auto n = ctx_.executor->read_block(
              proto, *ticket, off,
              std::span(buf.data(), static_cast<std::size_t>(len)));
          if (!n.ok()) {
            sent = Status{n.error()};
            break;
          }
          sent = ModeEBlock::send(
              *data,
              std::span<const char>(buf.data(),
                                    static_cast<std::size_t>(*n)),
              off, /*eof=*/false);
          off += *n;
        }
        if (sent.ok()) sent = ModeEBlock::send(*data, {}, off, /*eof=*/true);
      } else if (rest > 0) {
        sent = ctx_.executor->send_file_range(proto, *ticket, *data, rest,
                                              ticket->size - rest);
      } else {
        sent = ctx_.executor->send_file(proto, *ticket, *data);
      }
      data->shutdown_send();
      reply(stream, sent.ok() ? "226 transfer complete"
                              : "426 transfer failed");
      continue;
    }

    if (cmd == "stor" && words.size() == 2) {
      obs::Span pspan(obs::Layer::protocol, "put");
      req.op = NestOp::put;
      req.path = resolve(words[1]);
      req.size = 0;  // FTP carries no length; settled after transfer
      auto ticket = ctx_.dispatcher->approve_put(req);
      if (!ticket.ok()) {
        reply(stream, ftp_fail(Status{ticket.error()}));
        continue;
      }
      reply(stream, "150 ready for data");
      auto data = data_chan.open();
      if (!data.ok()) {
        reply(stream, "425 cannot open data connection");
        continue;
      }
      Result<std::int64_t> total = std::int64_t{0};
      if (mode == 'E') {
        std::vector<char> block;
        std::int64_t off = 0;
        std::int64_t received = 0;
        while (true) {
          auto more = ModeEBlock::recv(*data, block, off);
          if (!more.ok()) {
            total = more.error();
            break;
          }
          if (!block.empty()) {
            auto n = ctx_.executor->write_block(
                proto, *ticket, off,
                std::span<const char>(block.data(), block.size()));
            if (!n.ok()) {
              total = n.error();
              break;
            }
            received += *n;
          }
          if (!*more) {
            total = received;
            break;
          }
        }
      } else {
        total = ctx_.executor->recv_until_eof(proto, *ticket, *data);
      }
      if (!total.ok()) {
        reply(stream, "426 transfer failed");
        continue;
      }
      const Status charged = ctx_.dispatcher->storage().charge_written(
          who, req.path, *total);
      if (!charged.ok()) {
        // Best-effort cleanup of the uncharged store; the 5xx reply matters.
        (void)ctx_.dispatcher->remove(who, req.path);
        reply(stream, ftp_fail(charged));
        continue;
      }
      reply(stream, "226 stored " + std::to_string(*total) + " bytes");
      continue;
    }

    reply(stream, "500 unrecognized command");
  }
}

}  // namespace nest::protocol

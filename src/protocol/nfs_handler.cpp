#include "protocol/nfs_handler.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/log.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace nest::protocol {

using dispatcher::Reply;

namespace {

// The paper makes NFS anonymous (GSI is Chirp/GridFTP-only): every call
// runs as the anonymous principal and the ACL layer governs what it may do.
storage::Principal anonymous_nfs() {
  storage::Principal p;
  p.protocol = "nfs";
  p.authenticated = false;
  return p;
}

}  // namespace

NfsStat errc_to_nfs(Errc code) noexcept {
  switch (code) {
    case Errc::ok: return NFS_OK;
    case Errc::not_found: return NFSERR_NOENT;
    case Errc::exists: return NFSERR_EXIST;
    case Errc::not_dir: return NFSERR_NOTDIR;
    case Errc::is_dir: return NFSERR_ISDIR;
    case Errc::permission_denied:
    case Errc::not_authenticated: return NFSERR_ACCES;
    case Errc::no_space:
    case Errc::lot_expired: return NFSERR_NOSPC;
    case Errc::busy: return NFSERR_NOTEMPTY;
    case Errc::staging: return NFSERR_JUKEBOX;
    default: return NFSERR_PERM;
  }
}

NfsService::NfsService(dispatcher::Dispatcher& dispatcher,
                       TransferExecutor& executor, Options options)
    : dispatcher_(dispatcher), executor_(executor), options_(options) {
  id_to_path_[1] = "/";
  path_to_id_["/"] = 1;
}

NfsService::~NfsService() { stop(); }

Status NfsService::start() {
  auto sock = net::UdpSocket::bind(static_cast<uint16_t>(options_.port));
  if (!sock.ok()) return Status{sock.error()};
  socket_ = std::make_unique<net::UdpSocket>(std::move(sock.value()));
  port_ = socket_->port();
  worker_ = std::thread([this] { run(); });
  return {};
}

void NfsService::stop() {
  stopping_ = true;
  // Shutting the socket down wakes a worker blocked in recv_from.
  if (socket_) socket_->close();
  if (worker_.joinable()) worker_.join();
  socket_.reset();
}

void NfsService::run() {
  std::vector<char> buf(72 * 1024);
  while (!stopping_) {
    std::string ip;
    uint16_t port = 0;
    auto n = socket_->recv_from(std::span(buf.data(), buf.size()), ip, port);
    if (!n.ok()) continue;  // transient error
    if (*n <= 0) continue;  // empty datagram, or woken by stop()
    const std::vector<char> reply =
        handle(std::span<const char>(buf.data(), static_cast<std::size_t>(*n)));
    if (!reply.empty()) {
      // UDP reply send is fire-and-forget: NFS clients retransmit.
      (void)socket_->send_to(
          std::span<const char>(reply.data(), reply.size()), ip, port);
    }
  }
}

std::uint64_t NfsService::handle_for(const std::string& path) {
  const std::string norm = normalize_path(path);
  MutexLock lock(mu_);
  const auto it = path_to_id_.find(norm);
  if (it != path_to_id_.end()) return it->second;
  const std::uint64_t id = next_id_++;
  id_to_path_[id] = norm;
  path_to_id_[norm] = id;
  return id;
}

Result<std::string> NfsService::path_for(std::span<const char> fh) {
  if (fh.size() != kFhSize)
    return Error{Errc::protocol_error, "bad fh size"};
  std::uint64_t id = 0;
  std::memcpy(&id, fh.data(), sizeof id);
  MutexLock lock(mu_);
  const auto it = id_to_path_.find(id);
  if (it == id_to_path_.end()) return Error{Errc::not_found, "stale fh"};
  return it->second;
}

void NfsService::encode_fh(xdr::Encoder& out, std::uint64_t id) {
  char fh[kFhSize] = {};
  std::memcpy(fh, &id, sizeof id);
  out.put_fixed(std::span<const char>(fh, kFhSize));
}

void NfsService::encode_fattr(xdr::Encoder& out, const std::string& path,
                              const storage::FileStat& st) {
  out.put_u32(st.is_dir ? 2 : 1);                 // ftype: NFDIR / NFREG
  out.put_u32(st.is_dir ? 040755 : 0100644);      // mode
  out.put_u32(1);                                 // nlink
  out.put_u32(65534);                             // uid (nobody)
  out.put_u32(65534);                             // gid
  out.put_u32(static_cast<std::uint32_t>(st.size));
  out.put_u32(static_cast<std::uint32_t>(kNfsBlockSize));
  out.put_u32(0);                                 // rdev
  out.put_u32(static_cast<std::uint32_t>(
      (st.size + kNfsBlockSize - 1) / kNfsBlockSize));
  out.put_u32(1);                                 // fsid
  out.put_u32(static_cast<std::uint32_t>(handle_for(path)));  // fileid
  const auto secs = static_cast<std::uint32_t>(st.mtime / kSecond);
  for (int i = 0; i < 3; ++i) {  // atime, mtime, ctime
    out.put_u32(secs);
    out.put_u32(0);
  }
}

std::vector<char> NfsService::handle(std::span<const char> datagram) {
  xdr::Decoder dec(datagram);
  auto call = xdr::decode_call(dec);
  if (!call.ok()) return {};  // garbage datagram: drop
  xdr::Encoder out;
  if (call->prog == kNfsProg && call->vers == kNfsVers) {
    handle_nfs(*call, dec, out);
  } else if (call->prog == kMountProg && call->vers == kMountVers) {
    handle_mount(*call, dec, out);
  } else {
    xdr::encode_accepted_reply(out, call->xid, xdr::kAcceptProgUnavail);
  }
  return out.data();
}

void NfsService::handle_mount(const xdr::RpcCall& call, xdr::Decoder& args,
                              xdr::Encoder& out) {
  switch (call.proc) {
    case MOUNTPROC_NULL:
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptSuccess);
      return;
    case MOUNTPROC_MNT: {
      auto dirpath = args.get_string(1024);
      if (!dirpath.ok()) {
        xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptGarbageArgs);
        return;
      }
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptSuccess);
      const std::string norm = normalize_path(*dirpath);
      auto st = dispatcher_.storage().stat(anonymous_nfs(), norm);
      if (!st.ok() || !st->is_dir) {
        out.put_u32(st.ok() ? NFSERR_NOTDIR : errc_to_nfs(st.code()));
        return;
      }
      out.put_u32(NFS_OK);
      encode_fh(out, handle_for(norm));
      return;
    }
    case MOUNTPROC_UMNT:
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptSuccess);
      return;
    default:
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptProcUnavail);
  }
}

namespace {
// Static span names for each NFSv2 procedure (span names must outlive the
// ring buffer, so no dynamic strings here).
const char* nfs_proc_name(std::uint32_t proc) noexcept {
  switch (proc) {
    case NFSPROC_NULL: return "null";
    case NFSPROC_GETATTR: return "getattr";
    case NFSPROC_LOOKUP: return "lookup";
    case NFSPROC_READ: return "read";
    case NFSPROC_WRITE: return "write";
    case NFSPROC_CREATE: return "create";
    case NFSPROC_REMOVE: return "remove";
    case NFSPROC_RENAME: return "rename";
    case NFSPROC_MKDIR: return "mkdir";
    case NFSPROC_RMDIR: return "rmdir";
    case NFSPROC_READDIR: return "readdir";
    case NFSPROC_STATFS: return "statfs";
  }
  return "proc";
}
}  // namespace

void NfsService::handle_nfs(const xdr::RpcCall& call, xdr::Decoder& args,
                            xdr::Encoder& out) {
  obs::Span pspan(obs::Layer::protocol, nfs_proc_name(call.proc));
  const storage::Principal who = anonymous_nfs();

  auto fail = [&](NfsStat st) { out.put_u32(st); };

  auto get_fh_path = [&]() -> Result<std::string> {
    auto fh = args.get_fixed(kFhSize);
    if (!fh.ok()) return fh.error();
    return path_for(std::span<const char>(fh->data(), fh->size()));
  };

  // diropargs: fhandle + filename.
  auto get_dirop = [&]() -> Result<std::string> {
    auto dir = get_fh_path();
    if (!dir.ok()) return dir;
    auto name = args.get_string(255);
    if (!name.ok()) return name.error();
    return join_path(*dir, *name);
  };

  switch (call.proc) {
    case NFSPROC_NULL:
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptSuccess);
      return;

    case NFSPROC_GETATTR: {
      auto path = get_fh_path();
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptSuccess);
      if (!path.ok()) return fail(NFSERR_STALE);
      auto st = dispatcher_.storage().stat(who, *path);
      if (!st.ok()) return fail(errc_to_nfs(st.code()));
      out.put_u32(NFS_OK);
      encode_fattr(out, *path, *st);
      return;
    }

    case NFSPROC_LOOKUP: {
      auto path = get_dirop();
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptSuccess);
      if (!path.ok()) return fail(NFSERR_STALE);
      auto st = dispatcher_.storage().stat(who, *path);
      if (!st.ok()) return fail(errc_to_nfs(st.code()));
      out.put_u32(NFS_OK);
      encode_fh(out, handle_for(*path));
      encode_fattr(out, *path, *st);
      return;
    }

    case NFSPROC_READ: {
      auto path = get_fh_path();
      auto offset = args.get_u32();
      auto count = args.get_u32();
      (void)args.get_u32();  // totalcount, unused
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptSuccess);
      if (!path.ok() || !offset.ok() || !count.ok())
        return fail(NFSERR_STALE);
      auto ticket = dispatcher_.storage().approve_read(who, *path);
      if (!ticket.ok()) return fail(errc_to_nfs(ticket.code()));
      const std::size_t len =
          std::min<std::size_t>(*count, static_cast<std::size_t>(kNfsBlockSize));
      const auto buf = std::make_unique_for_overwrite<char[]>(len);
      auto n = executor_.read_block("nfs", *ticket, *offset,
                                    std::span(buf.get(), len));
      if (!n.ok()) return fail(errc_to_nfs(n.code()));
      // Post-op attributes come from approve_read's fstat of the file
      // being read: no second trip through the storage lock.
      storage::FileStat st;
      st.size = ticket->size;
      st.mtime = ticket->mtime;
      out.put_u32(NFS_OK);
      encode_fattr(out, *path, st);
      out.put_opaque(std::span<const char>(
          buf.get(), static_cast<std::size_t>(*n)));
      return;
    }

    case NFSPROC_WRITE: {
      auto path = get_fh_path();
      (void)args.get_u32();  // beginoffset, unused in v2
      auto offset = args.get_u32();
      (void)args.get_u32();  // totalcount, unused
      auto data = args.get_opaque(static_cast<std::size_t>(kNfsBlockSize));
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptSuccess);
      if (!path.ok() || !offset.ok() || !data.ok())
        return fail(NFSERR_STALE);
      // NFS writes arrive block-by-block with no whole-file size; open
      // without truncating and extend (write semantics differ from PUT).
      auto handle = dispatcher_.storage().open_for_append(who, *path);
      if (!handle.ok()) return fail(errc_to_nfs(handle.code()));
      storage::TransferTicket ticket;
      ticket.path = *path;
      ticket.handle = std::move(handle.value());
      // NFSv2 writes are synchronous and carry no whole-file size, so
      // space admission happens per block: re-charge the file's
      // prospective total before the bytes land (charge_written releases
      // the prior charge), mirroring what PUT-style protocols do with a
      // declared size up front. A block the lots cannot hold is
      // refused with NOSPC and never written.
      const auto old = ticket.handle->stat();
      const std::int64_t prospective =
          std::max(old.ok() ? old->size : 0,
                   static_cast<std::int64_t>(*offset) +
                       static_cast<std::int64_t>(data->size()));
      if (auto charged =
              dispatcher_.storage().charge_written(who, *path, prospective);
          !charged.ok()) {
        return fail(errc_to_nfs(charged.code()));
      }
      auto n = executor_.write_block(
          "nfs", ticket, *offset,
          std::span<const char>(data->data(), data->size()));
      if (!n.ok()) return fail(errc_to_nfs(n.code()));
      // Post-op attributes from one fstat of the handle just written.
      auto st = ticket.handle->stat();
      out.put_u32(NFS_OK);
      encode_fattr(out, *path, st.ok() ? *st : storage::FileStat{});
      return;
    }

    case NFSPROC_CREATE: {
      auto path = get_dirop();
      // sattr follows (mode/uid/gid/size/times) — ignored.
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptSuccess);
      if (!path.ok()) return fail(NFSERR_STALE);
      auto ticket = dispatcher_.storage().approve_write(who, *path, 0);
      if (!ticket.ok()) return fail(errc_to_nfs(ticket.code()));
      auto st = dispatcher_.storage().stat(who, *path);
      out.put_u32(NFS_OK);
      encode_fh(out, handle_for(*path));
      encode_fattr(out, *path, st.ok() ? *st : storage::FileStat{});
      return;
    }

    case NFSPROC_REMOVE: {
      auto path = get_dirop();
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptSuccess);
      if (!path.ok()) return fail(NFSERR_STALE);
      const Status s = dispatcher_.remove(who, *path);
      return fail(errc_to_nfs(s.code()));
    }

    case NFSPROC_RENAME: {
      auto from = get_dirop();
      auto to = get_dirop();
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptSuccess);
      if (!from.ok() || !to.ok()) return fail(NFSERR_STALE);
      NestRequest req;
      req.op = NestOp::rename;
      req.principal = who;
      req.path = *from;
      req.path2 = *to;
      const Reply r = dispatcher_.execute(req);
      return fail(errc_to_nfs(r.status.code()));
    }

    case NFSPROC_MKDIR: {
      auto path = get_dirop();
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptSuccess);
      if (!path.ok()) return fail(NFSERR_STALE);
      const Status s = dispatcher_.storage().mkdir(who, *path);
      if (!s.ok()) return fail(errc_to_nfs(s.code()));
      auto st = dispatcher_.storage().stat(who, *path);
      out.put_u32(NFS_OK);
      encode_fh(out, handle_for(*path));
      encode_fattr(out, *path, st.ok() ? *st : storage::FileStat{});
      return;
    }

    case NFSPROC_RMDIR: {
      auto path = get_dirop();
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptSuccess);
      if (!path.ok()) return fail(NFSERR_STALE);
      const Status s = dispatcher_.storage().rmdir(who, *path);
      return fail(errc_to_nfs(s.code()));
    }

    case NFSPROC_READDIR: {
      auto path = get_fh_path();
      (void)args.get_u32();  // cookie (we return everything)
      (void)args.get_u32();  // count
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptSuccess);
      if (!path.ok()) return fail(NFSERR_STALE);
      auto entries = dispatcher_.storage().list(who, *path);
      if (!entries.ok()) return fail(errc_to_nfs(entries.code()));
      out.put_u32(NFS_OK);
      std::uint32_t cookie = 1;
      for (const auto& e : *entries) {
        out.put_bool(true);  // another entry follows
        out.put_u32(static_cast<std::uint32_t>(
            handle_for(join_path(*path, e.name))));
        out.put_string(e.name);
        out.put_u32(cookie++);
      }
      out.put_bool(false);  // no more entries
      out.put_bool(true);   // eof
      return;
    }

    case NFSPROC_STATFS: {
      auto path = get_fh_path();
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptSuccess);
      if (!path.ok()) return fail(NFSERR_STALE);
      auto& storage = dispatcher_.storage();
      const std::int64_t free_blocks =
          storage.free_space() / kNfsBlockSize;
      out.put_u32(NFS_OK);
      out.put_u32(8192);  // tsize: optimal transfer size
      out.put_u32(static_cast<std::uint32_t>(kNfsBlockSize));
      out.put_u32(static_cast<std::uint32_t>(
          storage.total_space() / kNfsBlockSize));
      out.put_u32(static_cast<std::uint32_t>(free_blocks));
      out.put_u32(static_cast<std::uint32_t>(free_blocks));
      return;
    }

    default:
      xdr::encode_accepted_reply(out, call.xid, xdr::kAcceptProcUnavail);
  }
}

}  // namespace nest::protocol

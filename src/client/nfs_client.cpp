#include "client/nfs_client.h"

#include <cstring>

namespace nest::client {

namespace xdr = protocol::xdr;
using protocol::kFhSize;
using protocol::kMountProg;
using protocol::kMountVers;
using protocol::kNfsBlockSize;
using protocol::kNfsProg;
using protocol::kNfsVers;

Result<NfsClient> NfsClient::connect(const std::string& host, uint16_t port) {
  auto sock = net::UdpSocket::bind(0);
  if (!sock.ok()) return sock.error();
  if (auto s = sock->set_read_timeout(5000); !s.ok()) return Error{s.error()};
  return NfsClient(std::move(sock.value()), host, port);
}

Status NfsClient::nfs_status(std::uint32_t st) {
  using protocol::NfsStat;
  switch (static_cast<NfsStat>(st)) {
    case protocol::NFS_OK: return {};
    case protocol::NFSERR_NOENT: return Status{Errc::not_found, "nfs"};
    case protocol::NFSERR_ACCES: return Status{Errc::permission_denied, "nfs"};
    case protocol::NFSERR_EXIST: return Status{Errc::exists, "nfs"};
    case protocol::NFSERR_NOTDIR: return Status{Errc::not_dir, "nfs"};
    case protocol::NFSERR_ISDIR: return Status{Errc::is_dir, "nfs"};
    case protocol::NFSERR_NOSPC: return Status{Errc::no_space, "nfs"};
    case protocol::NFSERR_NOTEMPTY: return Status{Errc::busy, "nfs"};
    case protocol::NFSERR_JUKEBOX: return Status{Errc::staging, "nfs"};
    case protocol::NFSERR_STALE: return Status{Errc::not_found, "stale fh"};
    default: return Status{Errc::io_error, "nfs error " + std::to_string(st)};
  }
}

Result<std::vector<char>> NfsClient::call(std::uint32_t prog,
                                          std::uint32_t vers,
                                          std::uint32_t proc,
                                          const xdr::Encoder& args) {
  const std::uint32_t xid = next_xid_++;
  xdr::Encoder msg;
  xdr::encode_call(msg, xid, prog, vers, proc);
  msg.put_fixed(args.span());
  if (auto s = sock_.send_to(msg.span(), host_, port_); !s.ok())
    return Error{s.error()};

  std::vector<char> buf(72 * 1024);
  std::string from_ip;
  uint16_t from_port = 0;
  auto n = sock_.recv_from(std::span(buf.data(), buf.size()), from_ip,
                           from_port);
  if (!n.ok()) return n.error();
  buf.resize(static_cast<std::size_t>(*n));
  xdr::Decoder dec(std::span<const char>(buf.data(), buf.size()));
  if (auto s = xdr::decode_accepted_reply(dec, xid); !s.ok())
    return Error{s.error()};
  // Copy the remaining result bytes.
  std::vector<char> results(buf.end() - static_cast<std::ptrdiff_t>(
                                            dec.remaining()),
                            buf.end());
  return results;
}

namespace {

// Decode a fattr (17 u32 fields in NFSv2): type, size and mtime seconds.
Result<NfsClient::Attr> decode_fattr(xdr::Decoder& dec) {
  auto type = dec.get_u32();
  if (!type.ok()) return type.error();
  NfsClient::Attr attr;
  attr.is_dir = *type == 2;
  // mode, nlink, uid, gid
  for (int i = 0; i < 4; ++i) {
    if (auto v = dec.get_u32(); !v.ok()) return v.error();
  }
  auto size = dec.get_u32();
  if (!size.ok()) return size.error();
  attr.size = *size;
  // blocksize, rdev, blocks, fsid, fileid, atime (sec, usec)
  for (int i = 0; i < 7; ++i) {
    if (auto v = dec.get_u32(); !v.ok()) return v.error();
  }
  auto mtime = dec.get_u32();
  if (!mtime.ok()) return mtime.error();
  attr.mtime_sec = *mtime;
  // mtime usec, ctime (sec, usec)
  for (int i = 0; i < 3; ++i) {
    if (auto v = dec.get_u32(); !v.ok()) return v.error();
  }
  return attr;
}

}  // namespace

Result<NfsClient::Fh> NfsClient::mount(const std::string& dirpath) {
  xdr::Encoder args;
  args.put_string(dirpath);
  auto results = call(kMountProg, kMountVers, protocol::MOUNTPROC_MNT, args);
  if (!results.ok()) return results.error();
  xdr::Decoder dec(std::span<const char>(results->data(), results->size()));
  auto st = dec.get_u32();
  if (!st.ok()) return st.error();
  if (auto s = nfs_status(*st); !s.ok()) return Error{s.error()};
  auto fh = dec.get_fixed(kFhSize);
  if (!fh.ok()) return fh.error();
  return *fh;
}

Result<NfsClient::Attr> NfsClient::getattr(const Fh& fh) {
  xdr::Encoder args;
  args.put_fixed(std::span<const char>(fh.data(), fh.size()));
  auto results = call(kNfsProg, kNfsVers, protocol::NFSPROC_GETATTR, args);
  if (!results.ok()) return results.error();
  xdr::Decoder dec(std::span<const char>(results->data(), results->size()));
  auto st = dec.get_u32();
  if (!st.ok()) return st.error();
  if (auto s = nfs_status(*st); !s.ok()) return Error{s.error()};
  return decode_fattr(dec);
}

Result<std::pair<NfsClient::Fh, NfsClient::Attr>> NfsClient::lookup(
    const Fh& dir, const std::string& name) {
  xdr::Encoder args;
  args.put_fixed(std::span<const char>(dir.data(), dir.size()));
  args.put_string(name);
  auto results = call(kNfsProg, kNfsVers, protocol::NFSPROC_LOOKUP, args);
  if (!results.ok()) return results.error();
  xdr::Decoder dec(std::span<const char>(results->data(), results->size()));
  auto st = dec.get_u32();
  if (!st.ok()) return st.error();
  if (auto s = nfs_status(*st); !s.ok()) return Error{s.error()};
  auto fh = dec.get_fixed(kFhSize);
  if (!fh.ok()) return fh.error();
  auto attr = decode_fattr(dec);
  if (!attr.ok()) return attr.error();
  return std::make_pair(*fh, *attr);
}

Result<std::string> NfsClient::read(const Fh& fh, std::int64_t offset,
                                    std::int64_t count, Attr* attr) {
  xdr::Encoder args;
  args.put_fixed(std::span<const char>(fh.data(), fh.size()));
  args.put_u32(static_cast<std::uint32_t>(offset));
  args.put_u32(static_cast<std::uint32_t>(count));
  args.put_u32(0);  // totalcount
  auto results = call(kNfsProg, kNfsVers, protocol::NFSPROC_READ, args);
  if (!results.ok()) return results.error();
  xdr::Decoder dec(std::span<const char>(results->data(), results->size()));
  auto st = dec.get_u32();
  if (!st.ok()) return st.error();
  if (auto s = nfs_status(*st); !s.ok()) return Error{s.error()};
  auto post = decode_fattr(dec);
  if (!post.ok()) return post.error();
  if (attr != nullptr) *attr = *post;
  auto data = dec.get_opaque(static_cast<std::size_t>(kNfsBlockSize));
  if (!data.ok()) return data.error();
  return std::string(data->begin(), data->end());
}

Status NfsClient::write(const Fh& fh, std::int64_t offset,
                        const std::string& data, Attr* attr) {
  xdr::Encoder args;
  args.put_fixed(std::span<const char>(fh.data(), fh.size()));
  args.put_u32(0);  // beginoffset
  args.put_u32(static_cast<std::uint32_t>(offset));
  args.put_u32(0);  // totalcount
  args.put_opaque(std::span<const char>(data.data(), data.size()));
  auto results = call(kNfsProg, kNfsVers, protocol::NFSPROC_WRITE, args);
  if (!results.ok()) return Status{results.error()};
  xdr::Decoder dec(std::span<const char>(results->data(), results->size()));
  auto st = dec.get_u32();
  if (!st.ok()) return Status{st.error()};
  if (auto s = nfs_status(*st); !s.ok() || attr == nullptr) return s;
  auto post = decode_fattr(dec);
  if (!post.ok()) return Status{post.error()};
  *attr = *post;
  return {};
}

Result<NfsClient::Fh> NfsClient::create(const Fh& dir,
                                        const std::string& name) {
  xdr::Encoder args;
  args.put_fixed(std::span<const char>(dir.data(), dir.size()));
  args.put_string(name);
  // sattr: mode..mtime, all -1 (unset)
  for (int i = 0; i < 8; ++i) args.put_u32(0xffffffffu);
  auto results = call(kNfsProg, kNfsVers, protocol::NFSPROC_CREATE, args);
  if (!results.ok()) return results.error();
  xdr::Decoder dec(std::span<const char>(results->data(), results->size()));
  auto st = dec.get_u32();
  if (!st.ok()) return st.error();
  if (auto s = nfs_status(*st); !s.ok()) return Error{s.error()};
  auto fh = dec.get_fixed(kFhSize);
  if (!fh.ok()) return fh.error();
  return *fh;
}

Status NfsClient::remove(const Fh& dir, const std::string& name) {
  xdr::Encoder args;
  args.put_fixed(std::span<const char>(dir.data(), dir.size()));
  args.put_string(name);
  auto results = call(kNfsProg, kNfsVers, protocol::NFSPROC_REMOVE, args);
  if (!results.ok()) return Status{results.error()};
  xdr::Decoder dec(std::span<const char>(results->data(), results->size()));
  auto st = dec.get_u32();
  if (!st.ok()) return Status{st.error()};
  return nfs_status(*st);
}

Status NfsClient::rename(const Fh& from_dir, const std::string& from_name,
                         const Fh& to_dir, const std::string& to_name) {
  xdr::Encoder args;
  args.put_fixed(std::span<const char>(from_dir.data(), from_dir.size()));
  args.put_string(from_name);
  args.put_fixed(std::span<const char>(to_dir.data(), to_dir.size()));
  args.put_string(to_name);
  auto results = call(kNfsProg, kNfsVers, protocol::NFSPROC_RENAME, args);
  if (!results.ok()) return Status{results.error()};
  xdr::Decoder dec(std::span<const char>(results->data(), results->size()));
  auto st = dec.get_u32();
  if (!st.ok()) return Status{st.error()};
  return nfs_status(*st);
}

Result<NfsClient::Fh> NfsClient::mkdir(const Fh& dir,
                                       const std::string& name) {
  xdr::Encoder args;
  args.put_fixed(std::span<const char>(dir.data(), dir.size()));
  args.put_string(name);
  for (int i = 0; i < 8; ++i) args.put_u32(0xffffffffu);
  auto results = call(kNfsProg, kNfsVers, protocol::NFSPROC_MKDIR, args);
  if (!results.ok()) return results.error();
  xdr::Decoder dec(std::span<const char>(results->data(), results->size()));
  auto st = dec.get_u32();
  if (!st.ok()) return st.error();
  if (auto s = nfs_status(*st); !s.ok()) return Error{s.error()};
  auto fh = dec.get_fixed(kFhSize);
  if (!fh.ok()) return fh.error();
  return *fh;
}

Status NfsClient::rmdir(const Fh& dir, const std::string& name) {
  xdr::Encoder args;
  args.put_fixed(std::span<const char>(dir.data(), dir.size()));
  args.put_string(name);
  auto results = call(kNfsProg, kNfsVers, protocol::NFSPROC_RMDIR, args);
  if (!results.ok()) return Status{results.error()};
  xdr::Decoder dec(std::span<const char>(results->data(), results->size()));
  auto st = dec.get_u32();
  if (!st.ok()) return Status{st.error()};
  return nfs_status(*st);
}

Result<std::vector<std::string>> NfsClient::readdir(const Fh& dir) {
  xdr::Encoder args;
  args.put_fixed(std::span<const char>(dir.data(), dir.size()));
  args.put_u32(0);     // cookie
  args.put_u32(8192);  // count
  auto results = call(kNfsProg, kNfsVers, protocol::NFSPROC_READDIR, args);
  if (!results.ok()) return results.error();
  xdr::Decoder dec(std::span<const char>(results->data(), results->size()));
  auto st = dec.get_u32();
  if (!st.ok()) return st.error();
  if (auto s = nfs_status(*st); !s.ok()) return Error{s.error()};
  std::vector<std::string> names;
  while (true) {
    auto more = dec.get_bool();
    if (!more.ok()) return more.error();
    if (!*more) break;
    if (auto id = dec.get_u32(); !id.ok()) return id.error();
    auto name = dec.get_string(255);
    if (!name.ok()) return name.error();
    if (auto cookie = dec.get_u32(); !cookie.ok()) return cookie.error();
    names.push_back(*name);
  }
  return names;
}

Result<std::string> NfsClient::read_file(const Fh& dir,
                                         const std::string& name) {
  auto looked = lookup(dir, name);
  if (!looked.ok()) return looked.error();
  const auto& [fh, attr] = *looked;
  std::string out;
  out.reserve(static_cast<std::size_t>(attr.size));
  std::int64_t off = 0;
  while (off < attr.size) {
    auto chunk = read(fh, off, kNfsBlockSize);
    if (!chunk.ok()) return chunk.error();
    if (chunk->empty()) break;
    out += *chunk;
    off += static_cast<std::int64_t>(chunk->size());
  }
  return out;
}

Status NfsClient::write_file(const Fh& dir, const std::string& name,
                             const std::string& data) {
  auto fh = create(dir, name);
  if (!fh.ok()) return Status{fh.error()};
  std::int64_t off = 0;
  while (off < static_cast<std::int64_t>(data.size())) {
    const auto len = std::min<std::int64_t>(
        kNfsBlockSize, static_cast<std::int64_t>(data.size()) - off);
    if (auto s = write(*fh, off,
                       data.substr(static_cast<std::size_t>(off),
                                   static_cast<std::size_t>(len)));
        !s.ok()) {
      return s;
    }
    off += len;
  }
  return {};
}

}  // namespace nest::client

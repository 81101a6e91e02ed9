#include "protocol/xdr.h"

#include <cstring>

namespace nest::protocol::xdr {

namespace {
constexpr char kPad[4] = {0, 0, 0, 0};
std::size_t pad_len(std::size_t n) { return (4 - (n % 4)) % 4; }
}  // namespace

void Encoder::put_u32(std::uint32_t v) {
  const char bytes[4] = {
      static_cast<char>((v >> 24) & 0xff), static_cast<char>((v >> 16) & 0xff),
      static_cast<char>((v >> 8) & 0xff), static_cast<char>(v & 0xff)};
  buf_.insert(buf_.end(), bytes, bytes + 4);
}

void Encoder::put_u64(std::uint64_t v) {
  put_u32(static_cast<std::uint32_t>(v >> 32));
  put_u32(static_cast<std::uint32_t>(v & 0xffffffffull));
}

void Encoder::put_opaque(std::span<const char> data) {
  put_u32(static_cast<std::uint32_t>(data.size()));
  put_fixed(data);
}

void Encoder::put_fixed(std::span<const char> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
  buf_.insert(buf_.end(), kPad, kPad + pad_len(data.size()));
}

Result<std::uint32_t> Decoder::get_u32() {
  if (remaining() < 4) return Error{Errc::protocol_error, "xdr underflow"};
  const auto* p = reinterpret_cast<const unsigned char*>(data_.data() + pos_);
  pos_ += 4;
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

Result<std::int32_t> Decoder::get_i32() {
  auto v = get_u32();
  if (!v.ok()) return v.error();
  return static_cast<std::int32_t>(*v);
}

Result<std::uint64_t> Decoder::get_u64() {
  auto hi = get_u32();
  if (!hi.ok()) return hi.error();
  auto lo = get_u32();
  if (!lo.ok()) return lo.error();
  return (static_cast<std::uint64_t>(*hi) << 32) | *lo;
}

Result<bool> Decoder::get_bool() {
  auto v = get_u32();
  if (!v.ok()) return v.error();
  return *v != 0;
}

Result<std::vector<char>> Decoder::get_opaque(std::size_t max_len) {
  auto len = get_u32();
  if (!len.ok()) return len.error();
  if (*len > max_len) return Error{Errc::protocol_error, "opaque too long"};
  return get_fixed(*len);
}

Result<std::vector<char>> Decoder::get_fixed(std::size_t len) {
  const std::size_t padded = len + pad_len(len);
  if (remaining() < padded)
    return Error{Errc::protocol_error, "xdr underflow"};
  std::vector<char> out(data_.begin() + pos_, data_.begin() + pos_ + len);
  pos_ += padded;
  return out;
}

Result<std::string> Decoder::get_string(std::size_t max_len) {
  auto v = get_opaque(max_len);
  if (!v.ok()) return v.error();
  return std::string(v->begin(), v->end());
}

Status Decoder::skip(std::size_t bytes) {
  const std::size_t padded = bytes + pad_len(bytes);
  if (remaining() < padded) return Status{Errc::protocol_error, "xdr skip"};
  pos_ += padded;
  return {};
}

Result<RpcCall> decode_call(Decoder& dec) {
  RpcCall call;
  auto xid = dec.get_u32();
  if (!xid.ok()) return xid.error();
  call.xid = *xid;
  auto mtype = dec.get_u32();
  if (!mtype.ok() || *mtype != kMsgCall)
    return Error{Errc::protocol_error, "not a call"};
  auto rpcvers = dec.get_u32();
  if (!rpcvers.ok() || *rpcvers != kRpcVersion)
    return Error{Errc::protocol_error, "rpc version"};
  auto prog = dec.get_u32();
  auto vers = dec.get_u32();
  auto proc = dec.get_u32();
  if (!prog.ok() || !vers.ok() || !proc.ok())
    return Error{Errc::protocol_error, "call header"};
  call.prog = *prog;
  call.vers = *vers;
  call.proc = *proc;
  // Credential.
  auto cred_flavor = dec.get_u32();
  if (!cred_flavor.ok()) return cred_flavor.error();
  auto cred_body = dec.get_opaque(4096);
  if (!cred_body.ok()) return cred_body.error();
  if (*cred_flavor == kAuthUnix) {
    Decoder cred(std::span<const char>(cred_body->data(), cred_body->size()));
    (void)cred.get_u32();  // stamp
    auto machine = cred.get_string(256);
    if (machine.ok()) call.unix_machine = *machine;
  }
  // Verifier.
  auto verf_flavor = dec.get_u32();
  if (!verf_flavor.ok()) return verf_flavor.error();
  auto verf_body = dec.get_opaque(4096);
  if (!verf_body.ok()) return verf_body.error();
  return call;
}

void encode_call(Encoder& enc, std::uint32_t xid, std::uint32_t prog,
                 std::uint32_t vers, std::uint32_t proc) {
  enc.put_u32(xid);
  enc.put_u32(kMsgCall);
  enc.put_u32(kRpcVersion);
  enc.put_u32(prog);
  enc.put_u32(vers);
  enc.put_u32(proc);
  enc.put_u32(kAuthNone);
  enc.put_u32(0);  // empty cred body
  enc.put_u32(kAuthNone);
  enc.put_u32(0);  // empty verifier
}

void encode_accepted_reply(Encoder& enc, std::uint32_t xid,
                           std::uint32_t accept_stat) {
  enc.put_u32(xid);
  enc.put_u32(kMsgReply);
  enc.put_u32(kReplyAccepted);
  enc.put_u32(kAuthNone);
  enc.put_u32(0);  // verifier body
  enc.put_u32(accept_stat);
}

Status decode_accepted_reply(Decoder& dec, std::uint32_t expect_xid) {
  auto xid = dec.get_u32();
  if (!xid.ok()) return Status{xid.error()};
  if (*xid != expect_xid) return Status{Errc::protocol_error, "xid mismatch"};
  auto mtype = dec.get_u32();
  if (!mtype.ok() || *mtype != kMsgReply)
    return Status{Errc::protocol_error, "not a reply"};
  auto stat = dec.get_u32();
  if (!stat.ok() || *stat != kReplyAccepted)
    return Status{Errc::protocol_error, "rpc denied"};
  auto verf_flavor = dec.get_u32();
  if (!verf_flavor.ok()) return Status{verf_flavor.error()};
  auto verf_body = dec.get_opaque(4096);
  if (!verf_body.ok()) return Status{verf_body.error()};
  auto accept = dec.get_u32();
  if (!accept.ok()) return Status{accept.error()};
  if (*accept != kAcceptSuccess)
    return Status{Errc::protocol_error,
                  "rpc accept_stat " + std::to_string(*accept)};
  return {};
}

}  // namespace nest::protocol::xdr

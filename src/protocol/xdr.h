// XDR (RFC 1014) encoding and ONC RPC v2 (RFC 1057) message framing.
//
// The paper's NeST uses the Sun RPC package for NFS communication; we
// implement the needed subset ourselves: big-endian 4-byte basic types,
// length-prefixed padded opaques/strings, and the RPC call/reply envelope
// with AUTH_NONE/AUTH_UNIX credentials.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace nest::protocol::xdr {

class Encoder {
 public:
  void put_u32(std::uint32_t v);
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_u64(std::uint64_t v);
  void put_bool(bool b) { put_u32(b ? 1 : 0); }
  // Variable-length opaque: length + data + pad to 4.
  void put_opaque(std::span<const char> data);
  void put_string(const std::string& s) {
    put_opaque(std::span<const char>(s.data(), s.size()));
  }
  // Fixed-length opaque: data + pad, no length prefix.
  void put_fixed(std::span<const char> data);

  const std::vector<char>& data() const { return buf_; }
  std::span<const char> span() const {
    return std::span<const char>(buf_.data(), buf_.size());
  }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<char> buf_;
};

class Decoder {
 public:
  explicit Decoder(std::span<const char> data) : data_(data) {}

  NEST_NODISCARD Result<std::uint32_t> get_u32();
  NEST_NODISCARD Result<std::int32_t> get_i32();
  NEST_NODISCARD Result<std::uint64_t> get_u64();
  NEST_NODISCARD Result<bool> get_bool();
  NEST_NODISCARD Result<std::string> get_string(std::size_t max_len = 1 << 20);
  NEST_NODISCARD
  Result<std::vector<char>> get_opaque(std::size_t max_len = 1 << 20);
  NEST_NODISCARD Result<std::vector<char>> get_fixed(std::size_t len);
  NEST_NODISCARD Status skip(std::size_t bytes);

  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const char> data_;
  std::size_t pos_ = 0;
};

// --- ONC RPC v2 ---

constexpr std::uint32_t kRpcVersion = 2;
constexpr std::uint32_t kMsgCall = 0;
constexpr std::uint32_t kMsgReply = 1;
constexpr std::uint32_t kReplyAccepted = 0;
constexpr std::uint32_t kAcceptSuccess = 0;
constexpr std::uint32_t kAcceptProgUnavail = 1;
constexpr std::uint32_t kAcceptProcUnavail = 3;
constexpr std::uint32_t kAcceptGarbageArgs = 4;

constexpr std::uint32_t kAuthNone = 0;
constexpr std::uint32_t kAuthUnix = 1;

struct RpcCall {
  std::uint32_t xid = 0;
  std::uint32_t prog = 0;
  std::uint32_t vers = 0;
  std::uint32_t proc = 0;
  // AUTH_UNIX machine name when present (the uid is never trusted).
  std::optional<std::string> unix_machine;
  // Argument bytes follow; decode continues from `args`.
};

// Decode the call header; on success the decoder is positioned at the
// procedure arguments.
NEST_NODISCARD Result<RpcCall> decode_call(Decoder& dec);

// Encode a call envelope with AUTH_NONE (client side).
void encode_call(Encoder& enc, std::uint32_t xid, std::uint32_t prog,
                 std::uint32_t vers, std::uint32_t proc);

// Encode an accepted reply header with the given accept status; procedure
// results are appended afterwards by the caller.
void encode_accepted_reply(Encoder& enc, std::uint32_t xid,
                           std::uint32_t accept_stat);

// Decode a reply envelope (client side); on success the decoder is
// positioned at the results. Fails unless accepted+success.
NEST_NODISCARD
Status decode_accepted_reply(Decoder& dec, std::uint32_t expect_xid);

}  // namespace nest::protocol::xdr

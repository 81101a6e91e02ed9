// Byte-level codec for journal payloads.
//
// Payloads are flat little-endian records: fixed-width integers plus
// length-prefixed strings. The codec is deliberately schema-free — the
// storage layer defines what a payload means; the journal only frames,
// checksums, and sequences opaque payloads (see journal.h for the frame
// format).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace nest::journal {

class RecordWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  // Length-prefixed (u32) byte string.
  void str(std::string_view s);

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

// Sequential reader over a payload, with one sticky failure flag. The
// getters return plain values; a read past the end returns 0 (or an
// empty view), consumes nothing, and latches good() == false, after which
// every getter returns 0. A caller decodes a whole record, then checks
// good() once before it installs anything, so a truncated or corrupt
// payload is rejected rather than misparsed. A loop over a decoded count
// must also stop once !good(): a corrupt count would otherwise spin. The
// getters are inline because recovery runs every field of every record
// through them.
class RecordReader {
 public:
  explicit RecordReader(std::string_view buf) : buf_(buf) {}

  std::uint8_t u8() {
    const unsigned char* p = take(1);
    return p ? p[0] : 0;
  }
  // Assembled byte by byte: the format is little-endian whatever the host.
  std::uint32_t u32() {
    const unsigned char* p = take(4);
    if (!p) return 0;
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  // The next `n` bytes, and a length-prefixed (u32) byte string, as views
  // into the reader's buffer: copy one only where it is stored.
  std::string_view bytes(std::size_t n) {
    const unsigned char* p = take(n);
    if (!p) return {};
    return {reinterpret_cast<const char*>(p), n};
  }
  std::string_view str() { return bytes(u32()); }
  // Step over `n` bytes the caller does not need.
  void skip(std::size_t n) { take(n); }

  bool good() const { return good_; }
  bool done() const { return pos_ >= buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  // The next `n` bytes, or nullptr (latching the failure) if fewer remain.
  const unsigned char* take(std::size_t n) {
    if (!good_ || remaining() < n) {
      good_ = false;
      return nullptr;
    }
    const auto* p = reinterpret_cast<const unsigned char*>(buf_.data() + pos_);
    pos_ += n;
    return p;
  }

  std::string_view buf_;
  std::size_t pos_ = 0;
  bool good_ = true;
};

}  // namespace nest::journal

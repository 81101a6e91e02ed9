#include "journal/record.h"

namespace nest::journal {

void RecordWriter::u32(std::uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xff);
  b[1] = static_cast<char>((v >> 8) & 0xff);
  b[2] = static_cast<char>((v >> 16) & 0xff);
  b[3] = static_cast<char>((v >> 24) & 0xff);
  buf_.append(b, 4);
}

void RecordWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v & 0xffffffffu));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void RecordWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

}  // namespace nest::journal

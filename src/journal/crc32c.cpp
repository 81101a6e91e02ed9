#include "journal/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace nest::journal {

namespace {

// Reflected CRC32C table, generated at first use from the Castagnoli
// polynomial 0x1EDC6F41 (reflected form 0x82F63B78).
std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

std::uint32_t crc32c_table(const void* data, std::size_t len,
                           std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)

// Compiled for SSE4.2 alone: the rest of the binary keeps the baseline
// instruction set, and crc32c() calls this only on a CPU that has it.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto tail = static_cast<std::uint32_t>(crc);
  for (; len > 0; ++p, --len) tail = _mm_crc32_u8(tail, *p);
  return ~tail;
}

bool crc32c_hw_available() {
  // The CPU model is filled in by a static constructor; initialising it
  // here (idempotent) keeps a call from an earlier constructor correct.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

#else

std::uint32_t crc32c_hw(const void* data, std::size_t len,
                        std::uint32_t seed) {
  return crc32c_table(data, len, seed);
}

bool crc32c_hw_available() { return false; }

#endif

std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t seed) {
  static const auto impl =
      crc32c_hw_available() ? &crc32c_hw : &crc32c_table;
  return impl(data, len, seed);
}

}  // namespace nest::journal

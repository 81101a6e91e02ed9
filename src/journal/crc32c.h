// CRC32C (Castagnoli) — the checksum the journal stamps on every record
// frame and snapshot. The polynomial matches iSCSI/ext4 so external
// tooling can verify journal files.
//
// crc32c() runs on the SSE4.2 `crc32` instruction, 8 bytes per step, when
// the CPU has it, and on a byte-wise table everywhere else; the choice is
// made once, at run time, from the CPU alone. The build needs no
// -msse4.2, so the same binary runs on CPUs without the instruction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace nest::journal {

// One-shot CRC over a buffer. `seed` chains partial computations:
// crc32c(b, n, crc32c(a, m)) == crc32c(concat(a, b)).
std::uint32_t crc32c(const void* data, std::size_t len,
                     std::uint32_t seed = 0);

inline std::uint32_t crc32c(std::string_view s, std::uint32_t seed = 0) {
  return crc32c(s.data(), s.size(), seed);
}

// The two implementations crc32c() chooses between, exposed so tests can
// check each against the published vectors and against each other; no
// other caller picks one. crc32c_hw() may run only where
// crc32c_hw_available() is true.
std::uint32_t crc32c_table(const void* data, std::size_t len,
                           std::uint32_t seed = 0);
std::uint32_t crc32c_hw(const void* data, std::size_t len,
                        std::uint32_t seed = 0);
bool crc32c_hw_available();

}  // namespace nest::journal

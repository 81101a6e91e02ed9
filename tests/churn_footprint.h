// Shared by the connection-churn tests: this process's memory footprint
// and a cheap connection driver.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "net/socket.h"

namespace nest {

#if defined(__GLIBC__)
// Contending threads make glibc open new malloc arenas, each reserving
// 64 MiB of address space (up to 8 per core), and VmSize counts those
// reservations whether or not a thread leaked. One arena, capped before
// main() starts any thread, leaves thread stacks as the growth measured.
[[maybe_unused]] inline const int kChurnMallocArenas =
    mallopt(M_ARENA_MAX, 1);
#endif

// Mappings and virtual size of this process: the two numbers every exited
// but unjoined connection thread inflates (its stack stays mapped).
struct VmFootprint {
  long maps = 0;
  long vm_kb = 0;
};

inline VmFootprint vm_footprint() {
  VmFootprint out;
  std::ifstream maps("/proc/self/maps");
  for (std::string line; std::getline(maps, line);) ++out.maps;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmSize:", 0) == 0) out.vm_kb = std::stol(line.substr(7));
  }
  return out;
}

// `n` of the cheapest complete connections: connect, read the banner,
// close.
inline void churn(std::uint16_t port, int n) {
  for (int i = 0; i < n; ++i) {
    auto s = net::TcpStream::connect("127.0.0.1", port);
    ASSERT_TRUE(s.ok()) << "connection " << i << ": " << s.error().to_string();
    ASSERT_TRUE(s->read_line().ok()) << "connection " << i;
  }
}

}  // namespace nest

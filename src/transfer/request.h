// Transfer request descriptor shared by every scheduler and both substrates
// (real thread-per-connection server and discrete-event simulator).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/clock.h"

namespace nest::transfer {

enum class Direction { read, write };

struct TransferRequest {
  std::uint64_t id = 0;
  // Protocol class for proportional-share scheduling ("chirp", "gridftp",
  // "http", "nfs", "ftp").
  std::string protocol;
  // Authenticated user ("" for anonymous); the paper's planned per-user
  // proportional share uses this as the scheduling class instead.
  std::string user;
  Direction dir = Direction::read;
  std::string path;
  std::int64_t size = 0;   // expected bytes (0 when unknown)
  std::int64_t done = 0;   // bytes moved so far
  Nanos arrival = 0;
  // Estimated resident fraction at admission, from the gray-box cache
  // model; drives cache-aware scheduling.
  double cached_fraction = 0.0;
  // Scratch for schedulers (e.g. queue position bookkeeping).
  std::int64_t sched_tag = 0;
  // --- TransferCore fields ---
  // This request's protocol-class byte counter, resolved once by
  // TransferCore::create_request; charge() adds to it with no lock and no
  // lookup. It points into an insert-only map, so it never dangles.
  std::atomic<std::int64_t>* class_bytes = nullptr;
  // Real-mode slot-grant word (1 = slot granted). Accessed only through
  // std::atomic_ref: the owning connection thread resets it before each
  // submission and blocks on it; the granting thread stores 1 and
  // notifies under TransferCore's lock.
  // A plain word (not std::atomic<>) so the struct stays copyable for
  // single-threaded policy tests.
  std::uint32_t grant_word = 0;
};

}  // namespace nest::transfer

// The wire pass: one client session per thread speaking Chirp, HTTP,
// GridFTP or NFS to a live nestd, a closed loop over the session's seeded
// op stream, and a check on every reply. These are the benchmark's own
// minimal clients rather than src/client: every socket needs a read and a
// write deadline, and bulk reads drain in the kernel (MSG_TRUNC) unless
// the op is sampled for a content hash.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataset.h"
#include "net/socket.h"
#include "opstream.h"
#include "proc.h"

namespace livebench {

// Read and write deadline on every client socket; an op that misses it
// fails and counts toward error_ratio.
inline constexpr int kDeadlineMs = 5000;

using SteadyClock = std::chrono::steady_clock;

// A timed interval the traced pass records: an op (name = OpKind) or a
// connect (TcpStream::connect until the server's first byte) inside it.
struct SpanRec {
  enum Kind : std::uint8_t { op, connect };
  Kind kind = op;
  std::uint8_t name = 0;
  std::int32_t parent = -1;  // index of the enclosing op span, -1 if none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

// Where a session reports connect spans; null outside the traced pass.
struct SpanSink {
  std::vector<SpanRec>* spans = nullptr;
  std::int32_t current_op = -1;
  void connect_span(SteadyClock::time_point start, SteadyClock::time_point end);
};

// 127.0.0.1:port with both deadlines set.
NEST_NODISCARD nest::Result<nest::net::TcpStream> dial(std::uint16_t port);

class Session {
 public:
  virtual ~Session() = default;
  // Runs one op and checks its reply; `bytes` gets the payload moved.
  NEST_NODISCARD virtual nest::Status execute(const Op& op,
                                              std::int64_t* bytes) = 0;
  std::int64_t connects() const { return connects_; }

 protected:
  std::int64_t connects_ = 0;
};

NEST_NODISCARD nest::Result<std::unique_ptr<Session>> open_session(
    Workload w, int session, const Ports& ports, const DataSet& data,
    SpanSink* sink);

// Ids of every live lot, from a superuser Chirp LOT LIST.
NEST_NODISCARD nest::Result<std::vector<std::uint64_t>> list_lot_ids(
    std::uint16_t chirp_port);

// One HTTP/1.0 GET on a fresh connection; the body of a 200 reply.
NEST_NODISCARD nest::Result<std::string> http_fetch(std::uint16_t port,
                                                    const std::string& path);

// One op completed inside the window.
struct OpSample {
  float latency_us = 0;
  float done_s = 0;         // completion, seconds after the window start
  std::int32_t bytes = 0;   // payload moved (0 when the op failed)
  bool ok = false;
};

struct SessionStats {
  Proto proto = Proto::chirp;
  std::vector<OpSample> samples;   // ops completed inside the window
  std::int64_t ops = 0;            // completed inside the window, or failed
  std::int64_t failed = 0;
  std::int64_t bytes = 0;
  std::int64_t ops_total = 0;      // every op sent, warm-up included
  std::int64_t connects = 0;
  std::vector<SpanRec> spans;      // traced pass only
  std::string first_error;
};

struct WireStats {
  std::vector<SessionStats> sessions;
  double elapsed_s = 0;  // window start to the last in-window completion
};

struct WirePlan {
  Workload workload = Workload::small_read;
  Ports ports;
  const DataSet* data = nullptr;
  std::vector<OpStream>* streams = nullptr;  // one per session; resumed
  SteadyClock::time_point start;  // ops done earlier are warm-up
  SteadyClock::time_point end;    // no op starts after this
  std::int64_t max_ops_per_session = 0;  // 0 = until `end`
  bool traced = false;
};

// Drives kSessions closed-loop clients, one thread each.
WireStats run_wire(const WirePlan& plan);

}  // namespace livebench

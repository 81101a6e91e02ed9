#include "protocol/executor.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "fault/failpoint.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace nest::protocol {

using transfer::Direction;
using transfer::TransferRequest;

namespace {

// transfer.grant models the scheduler refusing (or stalling) a block
// admission — fired before every acquire so an armed point starves the
// transfer, not the slot accounting.
std::optional<Error> grant_refused() {
  std::optional<Error> refused;
  NEST_FAILPOINT("transfer.grant", refused = err);
  return refused;
}

}  // namespace

TransferExecutor::TransferExecutor(Clock& clock,
                                   transfer::TransferManager& /*tm*/,
                                   transfer::TransferCore& core,
                                   std::int64_t block_bytes,
                                   std::int64_t max_total_bw)
    : clock_(clock),
      core_(core),
      block_bytes_(block_bytes),
      max_total_bw_(max_total_bw) {}

void TransferExecutor::throttle(std::int64_t bytes) {
  if (max_total_bw_ <= 0 || bytes <= 0) return;
  Nanos wait_until = 0;
  {
    MutexLock lock(throttle_mu_);
    const Nanos now = clock_.now();
    const Nanos cost = from_seconds(static_cast<double>(bytes) /
                                    static_cast<double>(max_total_bw_));
    if (next_send_time_ < now) next_send_time_ = now;
    wait_until = next_send_time_;
    next_send_time_ += cost;
  }
  const Nanos now = clock_.now();
  if (wait_until > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(wait_until - now));
  }
}

Status TransferExecutor::move_blocks(const std::string& protocol,
                                     const storage::TransferTicket& ticket,
                                     net::TcpStream& stream,
                                     std::int64_t size, bool send,
                                     std::int64_t start_offset) {
  obs::Span tspan(obs::Layer::transfer, "transfer");
  tspan.set_value(size);
  TransferRequest* req =
      core_.create_request(protocol,
                           send ? Direction::read : Direction::write,
                           ticket.path, size, ticket.user);
  const Nanos start = clock_.now();
  Status result;
  // The bounce buffer exists only once a block takes the buffered path,
  // uninitialized and no larger than the transfer: a send that goes out
  // entirely by sendfile allocates nothing.
  std::unique_ptr<char[]> buf;
  const auto buffered_block = [&](std::int64_t len) {
    if (!buf) {
      buf = std::make_unique_for_overwrite<char[]>(
          static_cast<std::size_t>(std::min(block_bytes_, size)));
    }
    return std::span<char>(buf.get(), static_cast<std::size_t>(len));
  };
  // Zero-copy is decided per transfer: the first sendfile_map that
  // answers `unsupported` (MemFs, memory-backed ExtentFs) pins the rest
  // of this transfer to the buffered path — no per-block re-probing.
  bool try_zero_copy = send && net::zero_copy_enabled();
  std::int64_t off = 0;
  while (off < size) {
    const std::int64_t len = std::min(block_bytes_, size - off);
    const std::int64_t at = start_offset + off;
    obs::Span qspan(obs::Layer::transfer, "quantum");
    qspan.set_value(len);
    if (auto refused = grant_refused()) {
      result = Status{*refused};
      break;
    }
    core_.acquire(req);
    auto move_block = [&]() -> Status {
      if (!send) {
        const std::span<char> block = buffered_block(len);
        if (auto s = stream.read_exact(block); !s.ok()) return s;
        auto n = ticket.handle->pwrite(block, at);
        return n.ok() ? Status{} : Status{n.error()};
      }
      // Sends go kernel-to-kernel when the backend lends an fd: map this
      // block onto volume/file segments and sendfile each one. A map or
      // send shorter than the admitted block means the file shrank under
      // the transfer — same "short file read" the buffered path reports.
      if (try_zero_copy) {
        auto segs = ticket.handle->sendfile_map(at, len);
        if (segs.ok()) {
          std::int64_t mapped = 0;
          for (const auto& seg : *segs) mapped += seg.len;
          if (mapped != len) return Status{Errc::io_error, "short file read"};
          for (const auto& seg : *segs) {
            auto sent = stream.send_file(seg.fd, seg.offset, seg.len);
            if (!sent.ok()) return Status{sent.error()};
            if (*sent != seg.len)
              return Status{Errc::io_error, "short file read"};
          }
          return {};
        }
        if (segs.error().code != Errc::unsupported)
          return Status{segs.error()};
        try_zero_copy = false;
      }
      const std::span<char> block = buffered_block(len);
      auto n = ticket.handle->pread(block, at);
      if (!n.ok()) return Status{n.error()};
      if (*n != len) return Status{Errc::io_error, "short file read"};
      return stream.write_all(block);
    };
    const Status s = move_block();
    if (s.ok()) throttle(len);  // bandwidth cap binds while slot is held
    // Charge before releasing the slot so the next scheduling decision
    // sees this block's bytes (stale passes skew proportional shares).
    if (s.ok()) core_.charge(req, len);
    core_.release();
    if (!s.ok()) {
      result = s;
      break;
    }
    off += len;
  }
  const Nanos elapsed = clock_.now() - start;
  core_.complete(req);
  record_request(protocol, elapsed, result.ok());
  return result;
}

// Whole-transfer accounting shared by every data-movement entry point:
// the per-protocol request-latency histograms plus the request/error
// counters that `/stats` and the discovery ad report.
void TransferExecutor::record_request(const std::string& protocol,
                                      Nanos elapsed, bool ok) {
  auto& stats = obs::Stats::global();
  stats.requests.fetch_add(1, std::memory_order_relaxed);
  if (!ok) stats.errors.fetch_add(1, std::memory_order_relaxed);
  stats.request_latency(protocol).record(elapsed);
  stats.request_all.record(elapsed);
  stats.transfer_latency.record(elapsed);
}

Status TransferExecutor::send_file(const std::string& protocol,
                                   const storage::TransferTicket& ticket,
                                   net::TcpStream& stream) {
  return move_blocks(protocol, ticket, stream, ticket.size, /*send=*/true);
}

Status TransferExecutor::recv_file(const std::string& protocol,
                                   const storage::TransferTicket& ticket,
                                   net::TcpStream& stream,
                                   std::int64_t size) {
  return move_blocks(protocol, ticket, stream, size, /*send=*/false);
}

Status TransferExecutor::send_file_range(
    const std::string& protocol, const storage::TransferTicket& ticket,
    net::TcpStream& stream, std::int64_t offset, std::int64_t length) {
  return move_blocks(protocol, ticket, stream, length, /*send=*/true,
                     offset);
}

Result<std::int64_t> TransferExecutor::recv_until_eof(
    const std::string& protocol, const storage::TransferTicket& ticket,
    net::TcpStream& stream) {
  obs::Span tspan(obs::Layer::transfer, "transfer");
  const Nanos start = clock_.now();
  TransferRequest* req = core_.create_request(
      protocol, Direction::write, ticket.path, /*size=*/0, ticket.user);
  // The stream's length is unknown, so the buffer is a whole block.
  const auto buf_bytes = static_cast<std::size_t>(block_bytes_);
  const auto buf = std::make_unique_for_overwrite<char[]>(buf_bytes);
  std::int64_t off = 0;
  Status result;
  while (true) {
    obs::Span qspan(obs::Layer::transfer, "quantum");
    if (auto refused = grant_refused()) {
      result = Status{*refused};
      break;
    }
    core_.acquire(req);
    std::int64_t got = 0;
    auto move_block = [&]() -> Status {
      auto n = stream.read_some(std::span(buf.get(), buf_bytes));
      if (!n.ok()) return Status{n.error()};
      got = *n;
      if (got == 0) return {};  // orderly close
      auto w = ticket.handle->pwrite(
          std::span<const char>(buf.get(), static_cast<std::size_t>(got)),
          off);
      return w.ok() ? Status{} : Status{w.error()};
    };
    const Status s = move_block();
    if (s.ok() && got > 0) {
      throttle(got);
      core_.charge(req, got);
    }
    core_.release();
    if (!s.ok()) {
      result = s;
      break;
    }
    if (got == 0) break;
    off += got;
  }
  core_.complete(req);
  tspan.set_value(off);
  record_request(protocol, clock_.now() - start, result.ok());
  if (!result.ok()) return result.error();
  return off;
}

template <typename FileOp>
Result<std::int64_t> TransferExecutor::single_block(
    const std::string& protocol, const storage::TransferTicket& ticket,
    Direction dir, std::int64_t size, FileOp file_op) {
  const Nanos start = clock_.now();
  TransferRequest* req =
      core_.create_request(protocol, dir, ticket.path, size, ticket.user);
  if (auto refused = grant_refused()) {
    core_.complete(req);
    record_request(protocol, clock_.now() - start, false);
    return *refused;
  }
  core_.acquire(req);
  Result<std::int64_t> n = file_op();
  if (n.ok()) core_.charge(req, *n);
  core_.release();
  core_.complete(req);
  record_request(protocol, clock_.now() - start, n.ok());
  return n;
}

Result<std::int64_t> TransferExecutor::read_block(
    const std::string& protocol, const storage::TransferTicket& ticket,
    std::int64_t offset, std::span<char> buf) {
  obs::Span tspan(obs::Layer::transfer, "read_block");
  tspan.set_value(static_cast<std::int64_t>(buf.size()));
  return single_block(protocol, ticket, Direction::read,
                      static_cast<std::int64_t>(buf.size()),
                      [&] { return ticket.handle->pread(buf, offset); });
}

Result<std::int64_t> TransferExecutor::write_block(
    const std::string& protocol, const storage::TransferTicket& ticket,
    std::int64_t offset, std::span<const char> buf) {
  obs::Span tspan(obs::Layer::transfer, "write_block");
  tspan.set_value(static_cast<std::int64_t>(buf.size()));
  return single_block(protocol, ticket, Direction::write,
                      static_cast<std::int64_t>(buf.size()),
                      [&] { return ticket.handle->pwrite(buf, offset); });
}

}  // namespace nest::protocol

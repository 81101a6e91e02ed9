// TransferExecutor: real-mode data movement under the transfer manager's
// policies (paper Section 4).
//
// Every whole-file send/receive and every NFS block op registers a
// TransferRequest, then moves data one block at a time; each block is
// admitted by the TransferCore in the order the configured scheduler
// decides (charge/complete also go straight to the core's lock-free
// accounting path). The server is thread-per-connection: every block runs
// inline on the calling connection thread. The paper's other concurrency
// models (events, processes, staged) and the adaptive selector live in the
// simulator (src/simnest), where Figure 5 and ablations A5/A7 measure them.
#pragma once

#include <cstdint>

#include "common/clock.h"
#include "common/mutex.h"
#include "net/socket.h"
#include "storage/storage_manager.h"
#include "transfer/core.h"
#include "transfer/transfer_manager.h"

namespace nest::protocol {

class TransferExecutor {
 public:
  // `max_total_bw` (bytes/sec, 0 = unlimited) caps the appliance's total
  // transfer rate with a token bucket: an administrator knob, and the
  // mechanism that makes scheduling policies bind even when the physical
  // network is faster than the configured service rate. The
  // TransferManager argument is unused; it keeps existing callers
  // compiling.
  TransferExecutor(Clock& clock, transfer::TransferManager& /*tm*/,
                   transfer::TransferCore& core,
                   std::int64_t block_bytes = 64 * 1024,
                   std::int64_t max_total_bw = 0);

  // GET: stream the ticket's file to the socket. Byte count from the
  // ticket's size.
  NEST_NODISCARD
  Status send_file(const std::string& protocol,
                   const storage::TransferTicket& ticket,
                   net::TcpStream& stream);

  // Partial GET (HTTP Range, FTP REST): stream `length` bytes starting at
  // `offset`.
  NEST_NODISCARD
  Status send_file_range(const std::string& protocol,
                         const storage::TransferTicket& ticket,
                         net::TcpStream& stream, std::int64_t offset,
                         std::int64_t length);

  // PUT: receive exactly `size` bytes from the socket into the file.
  NEST_NODISCARD
  Status recv_file(const std::string& protocol,
                   const storage::TransferTicket& ticket,
                   net::TcpStream& stream, std::int64_t size);

  // FTP STOR: receive until the peer closes its data connection; returns
  // the byte count (the caller settles lot accounting afterwards).
  NEST_NODISCARD
  Result<std::int64_t> recv_until_eof(const std::string& protocol,
                                      const storage::TransferTicket& ticket,
                                      net::TcpStream& stream);

  // Single-block operations (NFS): scheduled as one-quantum requests.
  NEST_NODISCARD
  Result<std::int64_t> read_block(const std::string& protocol,
                                  const storage::TransferTicket& ticket,
                                  std::int64_t offset, std::span<char> buf);
  NEST_NODISCARD
  Result<std::int64_t> write_block(const std::string& protocol,
                                   const storage::TransferTicket& ticket,
                                   std::int64_t offset,
                                   std::span<const char> buf);

  std::int64_t block_bytes() const { return block_bytes_; }

 private:
  NEST_NODISCARD
  Status move_blocks(const std::string& protocol,
                     const storage::TransferTicket& ticket,
                     net::TcpStream& stream, std::int64_t size, bool send,
                     std::int64_t start_offset = 0);
  // One NFS block op as a one-quantum request: `file_op` runs the pread or
  // pwrite while the block holds its slot.
  template <typename FileOp>
  NEST_NODISCARD
  Result<std::int64_t> single_block(const std::string& protocol,
                                    const storage::TransferTicket& ticket,
                                    transfer::Direction dir,
                                    std::int64_t size, FileOp file_op);
  // Request/error counters + latency histograms for one finished request.
  void record_request(const std::string& protocol, Nanos elapsed, bool ok);
  // Token bucket: returns after this block's share of the configured
  // bandwidth has elapsed (no-op when uncapped).
  void throttle(std::int64_t bytes);

  Clock& clock_;
  transfer::TransferCore& core_;
  std::int64_t block_bytes_;
  std::int64_t max_total_bw_;
  Mutex throttle_mu_{lockrank::Rank::executor_throttle, "executor.throttle"};
  Nanos next_send_time_ GUARDED_BY(throttle_mu_) = 0;
};

}  // namespace nest::protocol

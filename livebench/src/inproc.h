// The two in-process passes of a traced run. Both replay the workload's
// seeded op streams with one thread per session, on the same root and
// journal nestd used, against a stack assembled from the public
// constructors NestServer::init uses:
//   pass 2 — dispatcher::Dispatcher::execute / approve_get / approve_put
//            and protocol::TransferExecutor::read_block / write_block;
//   pass 3 — storage::StorageManager calls, storage::FileHandle pread /
//            pwrite, then journal::Journal append + commit on the records
//            pass 3 produced, from kSessions threads.
// Every call is wrapped in a span owned by the benchmark.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataset.h"
#include "metrics.h"
#include "opstream.h"

namespace livebench {

enum class Call : std::uint8_t {
  execute,        // Dispatcher::execute
  approve_get,    // Dispatcher::approve_get
  approve_put,    // Dispatcher::approve_put
  read_block,     // TransferExecutor::read_block
  write_block,    // TransferExecutor::write_block
  lot_create,     // StorageManager::...
  lot_terminate,
  stat,
  remove,
  approve_read,
  approve_write,
  charge_written,
  pread,          // FileHandle::pread
  pwrite,         // FileHandle::pwrite
  kCount,
};
inline constexpr std::size_t kCalls = static_cast<std::size_t>(Call::kCount);
const char* call_name(Call c);
bool is_storage_call(Call c);  // a StorageManager entry point

// Key of an op class: session protocol and op kind.
inline int op_key(Proto p, OpKind k) {
  return static_cast<int>(p) * 16 + static_cast<int>(k);
}

struct PassStats {
  std::array<std::vector<double>, kCalls> call_us;  // every call's span
  // Block calls by payload size (4096 / 8192 / 65536): time and bytes.
  std::map<std::int64_t, MeanAcc> block_read_us, block_write_us;
  double pread_s = 0, pwrite_s = 0;
  std::int64_t pread_bytes = 0, pwrite_bytes = 0;
  std::map<int, MeanAcc> op_us;     // whole op (sum of its calls) per key
  std::map<int, MeanAcc> entry_us;  // the op's dispatcher or storage calls
  std::int64_t ops = 0;
  std::int64_t failed = 0;
  std::string first_error;
};

struct InprocResult {
  PassStats dispatcher;      // pass 2, paced like the wire pass
  PassStats storage;         // pass 3, paced like the wire pass
  PassStats storage_closed;  // pass 3 mix, kSessions closed loops
  PassStats storage_one;     // pass 3 mix, one closed loop (contention base)
  std::vector<double> commit_us;  // Journal::commit spans
  std::int64_t journal_records = 0;  // pass-3 records replayed
};

// Runs passes 2 and 3 for `pass_s` seconds each, session i issuing one op
// per `pace_us[i]` (the wire pass's rate), then the pass-3 mix as closed
// loops at kSessions threads and at one thread, and the journal commit
// loop, for `pass_s / 4` each. `commit_dir` is a directory on the same
// tmpfs for the commit loop's own journal.
NEST_NODISCARD nest::Result<InprocResult> run_inproc(
    Workload w, std::uint64_t seed, const DataSet& data,
    const std::string& root, const std::string& journal_dir,
    const std::string& commit_dir, double pass_s,
    const std::vector<double>& pace_us);

}  // namespace livebench

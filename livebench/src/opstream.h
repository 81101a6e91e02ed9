// Workload definitions: the seeded data set every run prepares and the
// seeded per-session operation streams the wire pass and both in-process
// passes replay. An op stream is a pure function of (workload, seed,
// session), so a traced run can replay exactly what the timed run sent.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "loadgen/zipf.h"
#include "storage/acl.h"

namespace livebench {

enum class Workload { small_read, meta_session, bulk_fig3, conn_churn };
enum class Proto : std::uint8_t { chirp, http, nfs, gridftp };

enum class OpKind : std::uint8_t {
  read,           // whole-file read (Chirp/HTTP GET, NFS READ RPCs, RETR)
  stat,           // Chirp STAT, HTTP HEAD, NFS LOOKUP
  lot_create,
  put,            // Chirp PUT of a 4 KiB file
  get,            // Chirp GET of the file just put
  unlink,
  lot_terminate,
  stor,           // GridFTP STOR of a 10 MiB payload
};

struct Op {
  OpKind kind = OpKind::read;
  std::uint32_t file = 0;  // data-set index (or loop number for meta ops)
  bool verify = false;     // hash the content, else drain it in the kernel
};

// --- The seeded data set ---
inline constexpr std::uint32_t kSmallFiles = 1024;
inline constexpr std::int64_t kSmallBytes = 4096;
inline constexpr std::uint32_t kBulkFiles = 4;
inline constexpr std::int64_t kBulkBytes = 10 * 1024 * 1024;
inline constexpr std::uint32_t kStorPayloads = 2;  // alternating STOR bodies
inline constexpr std::int64_t kMetaBytes = 4096;
inline constexpr std::int64_t kMetaLotBytes = 64 * 1024;
inline constexpr std::int64_t kMetaLotSeconds = 3600;
// Live lots the journal is seeded with, so nestd start-up replays real
// recovery work; meta_session must leave exactly these behind.
// Kept small: LotManager scans every live lot on each lot/space operation,
// so thousands of them would turn meta_session into a lot-count benchmark.
inline constexpr int kSeededLots = 200;
inline constexpr std::int64_t kSeededLotBytes = 4096;
// Lots created and terminated again while seeding, with no snapshot: the
// recovered tail is long, so start-up time is replay work rather than
// process-spawn jitter.
inline constexpr int kSeedChurnLots = 20000;
inline constexpr const char* kSeedOwner = "seeder";

// Shares that shape the streams.
inline constexpr double kStatShare = 0.10;        // small_read stat/lookup
inline constexpr double kZipfTheta = 0.99;
inline constexpr double kBulkVerifyShare = 0.125;  // bulk reads hashed

inline constexpr int kSessions = 4;  // clients per workload, one thread each

std::string small_path(std::uint32_t i);
std::string bulk_path(std::uint32_t i);
std::string stor_path(std::uint32_t payload);
std::string meta_dir(int session);
std::string meta_path(int session, std::uint32_t loop);

// Content ids for seeded_content(): small files, bulk files, STOR bodies
// and meta PUT bodies live in disjoint id ranges.
std::uint64_t small_id(std::uint32_t i);
std::uint64_t bulk_id(std::uint32_t i);
std::uint64_t stor_id(std::uint32_t payload);
std::uint64_t meta_id(int session);

const char* workload_name(Workload w);
std::optional<Workload> parse_workload(const std::string& name);
const char* proto_name(Proto p);

struct SessionSpec {
  Proto proto = Proto::chirp;
  std::string user;  // GSI subject; empty = anonymous
};
// The four clients of a workload, in session order.
std::vector<SessionSpec> sessions_of(Workload w);
// Secret the generated config registers for every benchmark user.
std::string secret_of(const std::string& user);

// Ops per cycle of a session's stream; a pass stops only between cycles,
// so a meta loop always terminates the lot it created and a RETR always
// follows its STOR.
int cycle_len(Workload w, Proto p);

// Principal the server assigns a session of this protocol and user.
nest::storage::Principal principal_of(const SessionSpec& spec);

class OpStream {
 public:
  OpStream(Workload w, std::uint64_t seed, int session);
  Op next();

 private:
  Workload w_;
  Proto proto_;
  nest::Rng rng_;
  nest::loadgen::ZipfSampler zipf_;
  std::uint64_t index_ = 0;
};

}  // namespace livebench

// The seeded data set: what a run writes into nestd's root and journal
// before start-up, and what every read is checked against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "opstream.h"

namespace livebench {

struct DataSet {
  std::vector<std::uint64_t> small_hash;  // per small file
  std::vector<std::uint64_t> bulk_hash;   // per bulk file
  std::vector<std::string> stor_body;     // GridFTP STOR payloads
  std::vector<std::uint64_t> stor_hash;
  std::vector<std::string> meta_body;     // per meta session PUT body
  std::vector<std::uint64_t> meta_hash;

  // Expected hashes for every workload; STOR bodies only for bulk_fig3.
  static DataSet make(std::uint64_t seed, Workload w);
};

// Writes the data set into `root` and seeds `journal_dir` with kSeededLots
// live lots, through the public LocalFs, StorageManager and Journal APIs
// (the same constructors nestd's start-up uses), so the journal holds real
// records to recover. Returns the seeded lot ids.
NEST_NODISCARD nest::Result<std::vector<std::uint64_t>> seed_storage(
    const std::string& root, const std::string& journal_dir, std::uint64_t seed);

// nestd settings the benchmark writes; everything else stays at the nestd
// default (see livebench/README.md for why each line is there).
std::string nestd_config(const std::string& root, const std::string& journal_dir);

// nestd's default `capacity`; the seeding and in-process stacks use the same.
inline constexpr std::int64_t kCapacity = 1'000'000'000;

}  // namespace livebench

// Tier residency map: which files live on the cold tier (CASTOR-style HSM).
//
// Lives in src/storage (not src/hsm) because it is journaled storage
// metadata embedded in the StorageManager: journal_ops serializes it, and
// the include-layering DAG (tools/nest-lint) forbids storage -> hsm edges.
// The nest::hsm namespace is kept — Tier/ColdEntry are HSM vocabulary used
// across the migrate/recall machinery above.
//
// The map is owned by the StorageManager and guarded by its metadata mutex;
// this type itself is unsynchronized, mirroring LotManager.
// Only the STABLE state is journaled: an entry present in the journal means
// "the authoritative copy of this path is the cold tier". The transient
// migrating/recalling states exist in memory only — a crash during either
// resolves by scrubbing the two filesystems against the journaled map
// (StorageManager::hsm_recover), which is what makes the deliberate
// double-residency window (cold copy durable before the hot copy is
// deleted) safe: acked data is never only in-flight.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace nest::hsm {

enum class Tier : std::uint8_t {
  hot = 0,        // only on the hot tier (no residency entry)
  cold = 1,       // authoritative copy on the cold tier
  migrating = 2,  // hot copy valid; cold copy being written
  recalling = 3,  // cold copy valid; hot copy being written
};

const char* tier_name(Tier t) noexcept;

struct ColdEntry {
  Tier tier = Tier::cold;
  std::int64_t size = 0;
  std::string owner;  // file owner, restored on the recalled hot copy
};

class ResidencyMap {
 public:
  void put(const std::string& path, ColdEntry entry) {
    entries_[path] = std::move(entry);
  }
  void erase(const std::string& path) { entries_.erase(path); }
  const ColdEntry* find(const std::string& path) const {
    auto it = entries_.find(path);
    return it == entries_.end() ? nullptr : &it->second;
  }
  bool set_tier(const std::string& path, Tier tier) {
    auto it = entries_.find(path);
    if (it == entries_.end()) return false;
    it->second.tier = tier;
    return true;
  }

  const std::map<std::string, ColdEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  // Bytes whose authoritative copy is cold (stable entries only).
  std::int64_t cold_bytes() const;
  std::size_t count(Tier tier) const;

 private:
  std::map<std::string, ColdEntry> entries_;
};

}  // namespace nest::hsm

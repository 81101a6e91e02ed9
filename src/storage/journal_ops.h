// Metadata journal payloads: what the storage manager writes into the
// journal and how recovery applies it back.
//
// A *batch* is one journal record = one client-visible operation. It
// carries the primitive state mutations the operation performed (full
// resulting lot states, not deltas), so replay is a blind state
// install: no admission control, no clock consultation, no reclaim — the
// decisions were made before the crash and their outcomes are what got
// acknowledged. Batches are atomic by construction (one checksummed
// frame): recovery either applies all of an operation's mutations or,
// when the frame is torn, none.
//
// A *snapshot* is the full serialized state of the managers (lots +
// next id, every ACL entry, the cold-resident files) plus the clock
// timestamp it was taken at; the journal's compaction uses it to retire
// old segments.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/result.h"
#include "storage/residency.h"
#include "journal/record.h"
#include "storage/acl.h"
#include "storage/lot.h"

namespace nest::storage {

// Builder for one operation's mutation batch.
class MetaBatch {
 public:
  void lot_put(const Lot& lot);
  void lot_erase(LotId id);
  void lot_expire(LotId id);
  void file_release(const std::string& path);
  void acl_put(const std::string& dir, const std::string& entry_text);
  void acl_clear(const std::string& dir, const std::string& principal);
  // HSM residency transitions. Only the stable "authoritative copy is
  // cold" state is journaled; migrating/recalling are in-memory and
  // resolved by the recovery scrub.
  void hsm_put(const std::string& path, std::int64_t size,
               const std::string& owner);
  void hsm_erase(const std::string& path);

  bool empty() const { return count_ == 0; }
  // Payload = timestamp | record count | records. Resets the builder.
  std::string seal(Nanos now);
  void clear();

 private:
  journal::RecordWriter body_;
  std::uint32_t count_ = 0;
};

struct MetaState {
  LotManager& lots;
  AccessControl& acl;
  hsm::ResidencyMap& residency;
};

// Apply one sealed batch; returns its timestamp.
NEST_NODISCARD
Result<Nanos> apply_meta_batch(std::string_view payload,
                               const MetaState& state);

// Full-state snapshot payloads.
std::string encode_meta_snapshot(Nanos now, const MetaState& state);
NEST_NODISCARD
Result<Nanos> apply_meta_snapshot(std::string_view payload,
                                  const MetaState& state);

}  // namespace nest::storage

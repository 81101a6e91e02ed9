// Lots: guaranteed storage space (paper Section 5).
//
// A lot is (owner, capacity, duration, files). While a lot is live its full
// capacity is reserved out of the appliance's space. When its duration
// expires the lot becomes *best-effort*: its files linger, but their space
// is reclaimed when needed to admit a new lot. Files may span multiple lots
// when no single lot can hold them. Group lots (listed by the paper as
// next-release work) are supported: any member of the owning group may use
// the lot.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"

namespace nest::storage {

using LotId = std::uint64_t;

// How to pick victims among best-effort (expired) lots when space is needed.
enum class ReclaimPolicy {
  expired_lru,       // least recently *used* expired lot first
  expired_largest,   // most reclaimable bytes first
  oldest_expiry,     // longest-expired first
};

struct Lot {
  LotId id = 0;
  std::string owner;         // user name, or group name for group lots
  bool group_lot = false;
  std::int64_t capacity = 0; // bytes guaranteed
  std::int64_t used = 0;     // bytes currently charged
  Nanos expiry = 0;          // absolute time the guarantee lapses
  bool best_effort = false;  // duration elapsed; space is reclaimable
  Nanos last_use = 0;
  // Desired replica count for files charged to this lot when the
  // appliance runs federated (0 = use the cluster-wide replication
  // factor). Journaled with the rest of the lot state, so followers see
  // the same policy the primary enforces.
  std::int64_t replicas = 0;
  // Pinned lots keep their files on the hot tier: the HSM migrator never
  // drains a file while any charging lot is pinned, even after expiry.
  bool pinned = false;
  // File -> bytes charged to this lot (a file may appear in several lots).
  std::map<std::string, std::int64_t> files;
};

struct LotAllocation {
  LotId lot = 0;
  std::int64_t bytes = 0;
};

class LotManager {
 public:
  // `on_reclaim` is invoked for every file whose space is reclaimed; the
  // storage manager deletes the underlying data there.
  LotManager(Clock& clock, std::int64_t total_capacity,
             ReclaimPolicy policy = ReclaimPolicy::expired_lru,
             std::function<void(const std::string&)> on_reclaim = {});

  // Admission control: creating a lot may reclaim best-effort space but
  // never revokes a live guarantee.
  NEST_NODISCARD
  Result<LotId> create(const std::string& owner, std::int64_t capacity,
                       Nanos duration, bool group_lot = false);

  NEST_NODISCARD Status renew(LotId id, Nanos additional_duration);
  // Files charged to the lot move to best-effort accounting (they are not
  // deleted; the paper's semantics keep data until space is needed).
  NEST_NODISCARD Status terminate(LotId id);

  NEST_NODISCARD Result<Lot> query(LotId id) const;
  std::vector<Lot> lots_of(const std::string& owner) const;
  std::vector<Lot> all_lots() const;

  // Charge `bytes` for `path` against lots usable by `who` (owner match or
  // group-lot membership), spanning lots when necessary. Fails with
  // no_space if the user's usable lots cannot hold the bytes.
  NEST_NODISCARD
  Result<std::vector<LotAllocation>> charge(
      const std::string& who, const std::vector<std::string>& groups,
      const std::string& path, std::int64_t bytes);

  // Release a file's charges everywhere (on delete/overwrite).
  void release_file(const std::string& path);

  // Mark expired lots best-effort; called lazily on every entry point and
  // available to dispatch loops as a periodic tick. A lot whose expiry
  // equals the current time is expired (the guarantee covers [create,
  // expiry)). Each lot transitions exactly once; `on_expire` fires at
  // that transition only, never on later ticks.
  void tick();

  // Observer for clock-driven expiry transitions (the storage manager
  // journals them so replay does not depend on re-deriving expiry from a
  // clock that restarted with the process).
  void set_on_expire(std::function<void(LotId)> fn) {
    on_expire_ = std::move(fn);
  }

  // --- Journal replay / snapshot support (no clock consultation) ---
  // Install a lot verbatim, replacing any existing lot with the same id.
  // Takes the lot by value: replay moves each decoded lot in.
  void restore_lot(Lot lot);
  void erase_lot(LotId id);
  // Replay of a journaled expiry transition; idempotent (a lot already
  // best-effort is untouched, matching the exactly-once tick contract).
  void apply_expire(LotId id);
  // Shift every stored timestamp by `delta`: recovery maps the previous
  // run's clock onto the new one so a lot keeps the remaining duration
  // it had at the last journaled record (downtime does not burn lease
  // time).
  void rebase(Nanos delta);
  LotId next_id() const { return next_id_; }
  void set_next_id(LotId id) { next_id_ = id; }
  // Drop every lot (snapshot install on a replica replaces, not merges,
  // the state). next_id_ is kept: ids only need to stay unique.
  void clear() { lots_.clear(); }

  // Space currently guaranteed to live lots.
  std::int64_t reserved_bytes() const;
  // Space that could be freed by reclaiming all best-effort lots.
  std::int64_t reclaimable_bytes() const;
  // Uncommitted capacity available to new lots right now (before reclaim).
  std::int64_t available_bytes() const;
  std::int64_t total_capacity() const { return total_capacity_; }

 private:
  std::int64_t reclaim(std::int64_t needed);
  // The single place a live lot becomes best-effort; idempotent.
  void expire_locked(Lot& lot, bool notify);

  Clock& clock_;
  std::int64_t total_capacity_;
  ReclaimPolicy policy_;
  std::function<void(const std::string&)> on_reclaim_;
  std::function<void(LotId)> on_expire_;
  std::map<LotId, Lot> lots_;
  LotId next_id_ = 1;
};

}  // namespace nest::storage

#include "storage/lot.h"

#include <algorithm>
#include <utility>

namespace nest::storage {

LotManager::LotManager(Clock& clock, std::int64_t total_capacity,
                       ReclaimPolicy policy,
                       std::function<void(const std::string&)> on_reclaim)
    : clock_(clock),
      total_capacity_(total_capacity),
      policy_(policy),
      on_reclaim_(std::move(on_reclaim)) {}

void LotManager::expire_locked(Lot& lot, bool notify) {
  if (lot.best_effort) return;  // exactly-once: already transitioned
  // The guarantee lapses but files remain until reclaimed
  // ("best-effort lots", paper Section 5).
  lot.best_effort = true;
  lot.capacity = lot.used;
  if (notify && on_expire_) on_expire_(lot.id);
}

void LotManager::tick() {
  const Nanos now = clock_.now();
  for (auto& [id, lot] : lots_) {
    if (!lot.best_effort && lot.expiry <= now) expire_locked(lot, true);
  }
}

void LotManager::restore_lot(Lot lot) {
  if (lot.id >= next_id_) next_id_ = lot.id + 1;
  const LotId id = lot.id;
  lots_.insert_or_assign(id, std::move(lot));
}

void LotManager::erase_lot(LotId id) { lots_.erase(id); }

void LotManager::apply_expire(LotId id) {
  const auto it = lots_.find(id);
  if (it != lots_.end()) expire_locked(it->second, false);
}

void LotManager::rebase(Nanos delta) {
  for (auto& [id, lot] : lots_) {
    lot.expiry += delta;
    lot.last_use += delta;
  }
}

std::int64_t LotManager::reserved_bytes() const {
  std::int64_t sum = 0;
  for (const auto& [id, lot] : lots_)
    sum += lot.best_effort ? lot.used : lot.capacity;
  return sum;
}

std::int64_t LotManager::reclaimable_bytes() const {
  std::int64_t sum = 0;
  for (const auto& [id, lot] : lots_)
    if (lot.best_effort) sum += lot.used;
  return sum;
}

std::int64_t LotManager::available_bytes() const {
  return total_capacity_ - reserved_bytes();
}

std::int64_t LotManager::reclaim(std::int64_t needed) {
  // Order best-effort lots by policy, then delete their files until enough
  // space is free. Whole files are reclaimed (a file spanning lots has all
  // its charges released once its data is gone).
  std::vector<Lot*> victims;
  for (auto& [id, lot] : lots_)
    if (lot.best_effort && lot.used > 0) victims.push_back(&lot);
  switch (policy_) {
    case ReclaimPolicy::expired_lru:
      std::sort(victims.begin(), victims.end(), [](Lot* a, Lot* b) {
        return a->last_use < b->last_use;
      });
      break;
    case ReclaimPolicy::expired_largest:
      std::sort(victims.begin(), victims.end(), [](Lot* a, Lot* b) {
        return a->used > b->used;
      });
      break;
    case ReclaimPolicy::oldest_expiry:
      std::sort(victims.begin(), victims.end(), [](Lot* a, Lot* b) {
        return a->expiry < b->expiry;
      });
      break;
  }
  std::int64_t freed = 0;
  for (Lot* lot : victims) {
    if (freed >= needed) break;
    // Copy names: release_file mutates lot->files.
    std::vector<std::string> files;
    files.reserve(lot->files.size());
    for (const auto& [path, bytes] : lot->files) files.push_back(path);
    for (const auto& path : files) {
      if (freed >= needed) break;
      // Count all charges for this file across all lots as freed.
      for (const auto& [id, l] : lots_) {
        const auto it = l.files.find(path);
        if (it != l.files.end()) freed += it->second;
      }
      if (on_reclaim_) on_reclaim_(path);
      release_file(path);
    }
  }
  return freed;
}

Result<LotId> LotManager::create(const std::string& owner,
                                 std::int64_t capacity, Nanos duration,
                                 bool group_lot) {
  if (capacity <= 0) return Error{Errc::invalid_argument, "capacity <= 0"};
  if (duration <= 0) return Error{Errc::invalid_argument, "duration <= 0"};
  tick();
  if (capacity > total_capacity_)
    return Error{Errc::no_space, "larger than appliance"};
  std::int64_t avail = available_bytes();
  if (avail < capacity) {
    reclaim(capacity - avail);
    avail = available_bytes();
    if (avail < capacity)
      return Error{Errc::no_space, "guarantees exhaust capacity"};
  }
  Lot lot;
  lot.id = next_id_++;
  lot.owner = owner;
  lot.group_lot = group_lot;
  lot.capacity = capacity;
  lot.expiry = clock_.now() + duration;
  lot.last_use = clock_.now();
  const LotId id = lot.id;
  lots_[id] = std::move(lot);
  return id;
}

Status LotManager::renew(LotId id, Nanos additional_duration) {
  tick();
  const auto it = lots_.find(id);
  if (it == lots_.end()) return Status{Errc::lot_unknown, std::to_string(id)};
  Lot& lot = it->second;
  if (lot.best_effort) {
    // Users may indefinitely renew: revive requires re-reserving capacity.
    const std::int64_t need = lot.used;  // best-effort only held `used`
    (void)need;  // capacity currently equals used; revival keeps that size
    lot.best_effort = false;
    lot.capacity = lot.used;
    lot.expiry = clock_.now() + additional_duration;
    return {};
  }
  lot.expiry += additional_duration;
  return {};
}

Status LotManager::terminate(LotId id) {
  tick();
  const auto it = lots_.find(id);
  if (it == lots_.end()) return Status{Errc::lot_unknown, std::to_string(id)};
  Lot& lot = it->second;
  if (lot.used == 0) {
    lots_.erase(it);
    return {};
  }
  // Files linger as best-effort data until their space is needed. The
  // explicit termination is journaled as the lot's resulting state, so
  // the clock-expiry observer is not notified.
  lot.expiry = clock_.now();
  expire_locked(lot, false);
  return {};
}

Result<Lot> LotManager::query(LotId id) const {
  const auto it = lots_.find(id);
  if (it == lots_.end()) return Error{Errc::lot_unknown, std::to_string(id)};
  return it->second;
}

std::vector<Lot> LotManager::lots_of(const std::string& owner) const {
  std::vector<Lot> out;
  for (const auto& [id, lot] : lots_)
    if (lot.owner == owner) out.push_back(lot);
  return out;
}

std::vector<Lot> LotManager::all_lots() const {
  std::vector<Lot> out;
  out.reserve(lots_.size());
  for (const auto& [id, lot] : lots_) out.push_back(lot);
  return out;
}

Result<std::vector<LotAllocation>> LotManager::charge(
    const std::string& who, const std::vector<std::string>& groups,
    const std::string& path, std::int64_t bytes) {
  if (bytes < 0) return Error{Errc::invalid_argument, "negative bytes"};
  tick();
  // Usable lots: live, owned by the user, or a group lot for one of the
  // user's groups.
  std::vector<Lot*> usable;
  for (auto& [id, lot] : lots_) {
    if (lot.best_effort) continue;
    const bool owner_match = !lot.group_lot && lot.owner == who;
    const bool group_match =
        lot.group_lot &&
        std::find(groups.begin(), groups.end(), lot.owner) != groups.end();
    if (owner_match || group_match) usable.push_back(&lot);
  }
  if (usable.empty()) return Error{Errc::lot_unknown, "no live lot for " + who};
  std::int64_t free_total = 0;
  for (Lot* lot : usable) free_total += lot->capacity - lot->used;
  if (free_total < bytes)
    return Error{Errc::no_space,
                 "lots of " + who + " cannot hold " + std::to_string(bytes)};
  // Span lots in id order (paper: "a file may span multiple lots if it
  // cannot fit within a single one").
  std::vector<LotAllocation> allocs;
  std::int64_t remaining = bytes;
  const Nanos now = clock_.now();
  for (Lot* lot : usable) {
    if (remaining == 0) break;
    const std::int64_t space = lot->capacity - lot->used;
    if (space <= 0) continue;
    const std::int64_t take = std::min(space, remaining);
    lot->used += take;
    lot->files[path] += take;
    lot->last_use = now;
    allocs.push_back(LotAllocation{lot->id, take});
    remaining -= take;
  }
  return allocs;
}

void LotManager::release_file(const std::string& path) {
  for (auto it = lots_.begin(); it != lots_.end();) {
    Lot& lot = it->second;
    const auto fit = lot.files.find(path);
    if (fit != lot.files.end()) {
      lot.used -= fit->second;
      lot.files.erase(fit);
      if (lot.best_effort) {
        lot.capacity = lot.used;
        if (lot.used == 0) {
          it = lots_.erase(it);
          continue;
        }
      }
    }
    ++it;
  }
}

}  // namespace nest::storage

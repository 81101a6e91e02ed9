#include "transfer/cache_model.h"

#include <algorithm>

namespace nest::transfer {

void CacheModel::link_front(std::uint32_t id) {
  Page& page = pool_[id];
  page.newer = kNil;
  page.older = mru_;
  if (mru_ != kNil) pool_[mru_].newer = id;
  mru_ = id;
  if (lru_ == kNil) lru_ = id;
}

void CacheModel::unlink(std::uint32_t id) {
  Page& page = pool_[id];
  (page.newer != kNil ? pool_[page.newer].older : mru_) = page.older;
  (page.older != kNil ? pool_[page.older].newer : lru_) = page.newer;
}

void CacheModel::trim(File& file) {
  while (!file.slots.empty() && file.slots.back() == kNil) {
    file.slots.pop_back();
  }
}

void CacheModel::evict_lru(const File* accessing) {
  const std::uint32_t id = lru_;
  unlink(id);
  Page& page = pool_[id];
  File& file = *page.file;
  file.slots[static_cast<std::size_t>(page.index)] = kNil;
  --file.resident;
  --resident_;
  page.file = nullptr;
  page.older = free_;
  free_ = id;
  if (&file == accessing) return;
  if (file.resident == 0) {
    files_.erase(files_.find(*file.path));
  } else {
    trim(file);
  }
}

void CacheModel::observe_access(const std::string& path, std::int64_t offset,
                                std::int64_t len) {
  if (len <= 0) return;
  const std::int64_t first = offset / page_bytes_;
  const std::int64_t last = (offset + len - 1) / page_bytes_;
  auto [it, inserted] = files_.try_emplace(path);
  File& file = it->second;
  if (inserted) file.path = &it->first;
  if (static_cast<std::int64_t>(file.slots.size()) <= last) {
    file.slots.resize(static_cast<std::size_t>(last + 1), kNil);
  }
  for (std::int64_t p = first; p <= last; ++p) {
    const auto slot = static_cast<std::size_t>(p);
    if (file.slots[slot] != kNil) {
      unlink(file.slots[slot]);
      link_front(file.slots[slot]);
      continue;
    }
    while (resident_ >= capacity_pages_ && lru_ != kNil) evict_lru(&file);
    std::uint32_t id = free_;
    if (id != kNil) {
      free_ = pool_[id].older;
    } else {
      id = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    }
    pool_[id].file = &file;
    pool_[id].index = p;
    link_front(id);
    file.slots[slot] = id;
    ++file.resident;
    ++resident_;
  }
  // Own pages evicted above may have left empty slots at the top.
  trim(file);
}

void CacheModel::observe_remove(const std::string& path) {
  const auto it = files_.find(path);
  if (it == files_.end()) return;
  for (const std::uint32_t id : it->second.slots) {
    if (id == kNil) continue;
    unlink(id);
    pool_[id].file = nullptr;
    pool_[id].older = free_;
    free_ = id;
  }
  resident_ -= it->second.resident;
  files_.erase(it);
}

double CacheModel::resident_fraction(const std::string& path,
                                     std::int64_t size) const {
  if (size <= 0) return 1.0;
  const std::int64_t pages = (size + page_bytes_ - 1) / page_bytes_;
  const auto it = files_.find(path);
  if (it == files_.end()) return 0.0;
  const File& file = it->second;
  std::int64_t resident = file.resident;
  if (pages < static_cast<std::int64_t>(file.slots.size())) {
    // The file has resident pages past the queried prefix (it shrank, or
    // the request covers part of it): count the prefix's slots.
    resident = std::count_if(
        file.slots.begin(), file.slots.begin() + pages,
        [](std::uint32_t id) { return id != kNil; });
  }
  return static_cast<double>(resident) / static_cast<double>(pages);
}

}  // namespace nest::transfer

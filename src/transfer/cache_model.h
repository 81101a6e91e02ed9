// Gray-box model of the kernel buffer cache (paper Section 4.2, building on
// Arpaci-Dusseau's gray-box methodology and the Burnett et al. USENIX '02
// work the paper cites).
//
// NeST runs at user level and cannot see the kernel cache, but it *can*
// observe every byte it reads and writes. This model mirrors the kernel's
// (assumed LRU) replacement over those observations with a configurable
// estimated cache size, and predicts whether a file is resident — the
// signal cache-aware scheduling needs.
//
// Exact page LRU at O(1) hash work per call: pages are interned per file.
// Each call looks its path up once; a file entry holds one slot per page
// (the page's LRU node, or none) and its resident count, and the LRU list
// threads page nodes from a pool by index, so no per-page key is copied or
// hashed. A file with no resident page has no entry.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace nest::transfer {

class CacheModel {
 public:
  CacheModel(std::int64_t estimated_cache_bytes, std::int64_t page_bytes)
      : capacity_pages_(estimated_cache_bytes / page_bytes),
        page_bytes_(page_bytes) {}

  // Record that the server read/wrote [offset, offset+len) of `path`
  // (offset >= 0) through the kernel. Both populate the (modeled) cache.
  void observe_access(const std::string& path, std::int64_t offset,
                      std::int64_t len);

  // Record that `path` was removed (its pages die with it).
  void observe_remove(const std::string& path);

  // Predicted fraction of the first `size` bytes resident right now.
  double resident_fraction(const std::string& path, std::int64_t size) const;

  bool probably_cached(const std::string& path, std::int64_t size,
                       double threshold = 0.99) const {
    return resident_fraction(path, size) >= threshold;
  }

  std::int64_t page_bytes() const { return page_bytes_; }
  std::int64_t tracked_pages() const { return resident_; }
  std::int64_t tracked_files() const {
    return static_cast<std::int64_t>(files_.size());
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct File {
    const std::string* path = nullptr;  // this entry's key in files_
    // slots[p] = pool index of page p's LRU node, kNil when not resident.
    // The last slot is always resident between calls.
    std::vector<std::uint32_t> slots;
    std::int64_t resident = 0;
  };
  // A resident page: one LRU node (a free-list node when unused).
  struct Page {
    File* file = nullptr;
    std::int64_t index = 0;
    std::uint32_t newer = kNil;  // toward the MRU end
    std::uint32_t older = kNil;  // toward the LRU end; free-list link
  };

  void link_front(std::uint32_t id);
  void unlink(std::uint32_t id);
  // Evict the LRU page. Its file's entry goes with its last page, unless
  // that file is `accessing` (the caller still holds its slots).
  void evict_lru(const File* accessing);
  static void trim(File& file);

  std::int64_t capacity_pages_;
  std::int64_t page_bytes_;
  std::unordered_map<std::string, File> files_;
  std::vector<Page> pool_;
  std::uint32_t free_ = kNil;
  std::uint32_t mru_ = kNil;
  std::uint32_t lru_ = kNil;
  std::int64_t resident_ = 0;
};

}  // namespace nest::transfer

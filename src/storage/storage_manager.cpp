#include "storage/storage_manager.h"

#include <set>

#include "common/log.h"
#include "common/string_util.h"
#include "fault/failpoint.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace nest::storage {

StorageManager::StorageManager(Clock& clock, std::unique_ptr<VirtualFs> fs,
                               StorageOptions options)
    : clock_(clock),
      fs_(std::move(fs)),
      options_(options),
      acl_(options.superuser),
      lots_(clock,
            options.lot_capacity > 0 ? options.lot_capacity
                                     : fs_->total_space(),
            ReclaimPolicy::expired_lru,
            // Escape 1/3 (see docs/static-analysis.md): the reclaim
            // callback only runs from LotManager calls made under mu_,
            // but the analysis cannot see through the std::function.
            [this](const std::string& path) NO_THREAD_SAFETY_ANALYSIS {
              // Best-effort reclamation deletes the backing data; the
              // released path is journaled so replay reproduces the
              // reclaim decision instead of re-deriving it.
              batch_.file_release(path);
              const Status s = fs_->remove(path);
              if (!s.ok()) {
                NEST_LOG_WARN("storage", "reclaim of %s failed: %s",
                              path.c_str(), s.to_string().c_str());
              }
            }) {
  // Clock-driven expiry transitions are journaled the same way: replay
  // applies the recorded transition instead of consulting a clock that
  // restarted with the process. Escape 2/3: same std::function blindness
  // as the reclaim callback above.
  lots_.set_on_expire(
      [this](LotId id) NO_THREAD_SAFETY_ANALYSIS { batch_.lot_expire(id); });
}

Status StorageManager::attach_journal(journal::Journal& j, bool rebase_clock) {
  MutexLock lock(mu_);
  const MetaState state = meta_state();
  Nanos last_ts = 0;
  if (j.snapshot_payload()) {
    auto ts = apply_meta_snapshot(*j.snapshot_payload(), state);
    if (!ts.ok()) return Status{ts.error()};
    last_ts = *ts;
  }
  Status s = j.replay([&](journal::Lsn, std::string_view payload) -> Status {
    auto ts = apply_meta_batch(payload, state);
    if (!ts.ok()) return Status{ts.error()};
    last_ts = *ts;
    return {};
  });
  if (!s.ok()) return s;
  j.drop_recovered_tail();
  if (rebase_clock && last_ts != 0) {
    // Map the previous run's clock onto this one: lots keep the remaining
    // duration they had at the last journaled record.
    lots_.rebase(clock_.now() - last_ts);
  }
  journal_ = &j;
  batch_.clear();
  const journal::JournalStats st = j.stats();
  NEST_LOG_INFO("storage",
                "journal attached: snapshot lsn %llu, recovered_records %llu, "
                "recovered_bytes %llu, recovery_us %lld",
                static_cast<unsigned long long>(st.snapshot_lsn),
                static_cast<unsigned long long>(st.recovered_records),
                static_cast<unsigned long long>(st.recovered_bytes),
                static_cast<long long>(st.recovery_time / kMicrosecond));
  return {};
}

std::optional<journal::JournalStats> StorageManager::journal_stats() const {
  MutexLock lock(mu_);
  if (!journal_) return std::nullopt;
  return journal_->stats();
}

Status StorageManager::write_journal_snapshot() {
  MutexLock lock(mu_);
  if (!journal_) return Status{Errc::invalid_argument, "no journal attached"};
  const MetaState state = meta_state();
  return journal_->write_snapshot(encode_meta_snapshot(clock_.now(), state));
}

std::string StorageManager::serialize_meta(Nanos at) {
  MutexLock lock(mu_);
  return encode_meta_snapshot(at, meta_state());
}

void StorageManager::record_lot_locked(LotId id) {
  auto lot = lots_.query(id);
  if (lot.ok()) {
    batch_.lot_put(*lot);
  } else {
    batch_.lot_erase(id);
  }
}

Result<journal::Lsn> StorageManager::seal_batch_locked() {
  if (batch_.empty()) return journal::Lsn{0};
  if (!journal_) {
    batch_.clear();
    return journal::Lsn{0};
  }
  std::string payload = batch_.seal(clock_.now());
  auto lsn = journal_->append(payload);
  if (!lsn.ok()) return lsn;
  // Replication fan-out sees every sealed batch in LSN order because mu_
  // is still held here; the hook only enqueues (rank cluster_ship).
  if (replication_hook_) replication_hook_(*lsn, payload);
  maybe_snapshot_locked();
  return lsn;
}

void StorageManager::set_replication_hook(ReplicationHook hook) {
  MutexLock lock(mu_);
  replication_hook_ = std::move(hook);
}

Status StorageManager::apply_replicated_batch(std::string_view payload) {
  NEST_FAILPOINT("cluster.apply", return Status{err});
  journal::Lsn lsn = 0;
  {
    MutexLock lock(mu_);
    auto ts = apply_meta_batch(payload, meta_state());
    if (!ts.ok()) return Status{ts.error()};
    if (journal_) {
      // The shipped payload is journaled verbatim under the follower's
      // own LSN sequence, so a follower restart replays through the same
      // blind-install path as a primary restart.
      auto local = journal_->append(std::string(payload));
      if (!local.ok()) return Status{local.error()};
      lsn = *local;
      maybe_snapshot_locked();
    }
  }
  return barrier(lsn);
}

StorageManager::MetaSnapshot StorageManager::replica_snapshot() {
  MutexLock lock(mu_);
  MetaSnapshot out;
  out.payload = encode_meta_snapshot(clock_.now(), meta_state());
  if (journal_) out.lsn = journal_->stats().last_lsn;
  return out;
}

Status StorageManager::materialize_parents_locked(VirtualFs& fs,
                                                  const std::string& norm) {
  std::vector<std::string> missing;
  for (std::string dir = parent_path(norm); dir != "/" && !dir.empty();
       dir = parent_path(dir)) {
    auto st = fs.stat(dir);
    if (st.ok()) break;
    missing.push_back(dir);
  }
  for (auto it = missing.rbegin(); it != missing.rend(); ++it) {
    if (auto s = fs.mkdir(*it); !s.ok() && s.code() != Errc::exists) return s;
  }
  return {};
}

Status StorageManager::install_replica_file(const std::string& path,
                                            std::string_view data) {
  MutexLock lock(mu_);
  const std::string norm = normalize_path(path);
  // Materialize missing parents: the content push can outrun the mkdir
  // that created the directory on the primary (directories are not
  // journaled metadata).
  if (auto s = materialize_parents_locked(*fs_, norm); !s.ok()) return s;
  auto handle = fs_->create(norm);
  if (!handle.ok()) return Status{handle.error()};
  if (auto s = (*handle)->truncate(0); !s.ok()) return s;
  auto wrote =
      (*handle)->pwrite(std::span<const char>(data.data(), data.size()), 0);
  if (!wrote.ok()) return Status{wrote.error()};
  if (*wrote != static_cast<std::int64_t>(data.size()))
    return Status{Errc::io_error, "short replica write"};
  return {};
}

Status StorageManager::install_replica_snapshot(std::string_view payload) {
  MutexLock lock(mu_);
  // A snapshot replaces the state wholesale: the follower may hold lots
  // the primary has since erased, and restore-on-top would leak them past
  // the catch-up. (ACLs need no clear: apply_meta_snapshot imports them
  // wholesale already.)
  lots_.clear();
  residency_.clear();
  auto ts = apply_meta_snapshot(payload, meta_state());
  if (!ts.ok()) return Status{ts.error()};
  batch_.clear();
  if (journal_) {
    // Persist as the local snapshot so a later restart recovers from it
    // (and the journal retires any pre-catch-up segments).
    return journal_->write_snapshot(std::string(payload));
  }
  return {};
}

void StorageManager::maybe_snapshot_locked() {
  if (journal_->stats().records_since_snapshot <
      options_.journal_snapshot_every) {
    return;
  }
  const MetaState state = meta_state();
  if (auto s = journal_->write_snapshot(
          encode_meta_snapshot(clock_.now(), state));
      !s.ok()) {
    NEST_LOG_WARN("storage", "journal snapshot failed: %s",
                  s.to_string().c_str());
  }
}

Status StorageManager::barrier(journal::Lsn lsn) {
  if (lsn == 0 || !journal_) return {};
  obs::Span span(obs::Layer::journal, "commit");
  span.set_value(static_cast<std::int64_t>(lsn));
  const Nanos wait_start = clock_.now();
  Status s = journal_->commit(lsn);
  obs::Stats::global().journal_fsync_wait.record(clock_.now() - wait_start);
  return s;
}

Status StorageManager::check(const Principal& who, const std::string& path,
                             Right needed) const {
  return acl_.check(who, path, needed);
}

Status StorageManager::mkdir(const Principal& who, const std::string& path) {
  obs::Span span(obs::Layer::storage, "mkdir");
  MutexLock lock(mu_);
  if (auto s = check(who, parent_path(path), Right::insert); !s.ok()) return s;
  auto s = fs_->mkdir(path);
  if (s.ok()) fs_->set_owner(path, who.name);
  return s;
}

Status StorageManager::rmdir(const Principal& who, const std::string& path) {
  obs::Span span(obs::Layer::storage, "rmdir");
  MutexLock lock(mu_);
  if (auto s = check(who, path, Right::del); !s.ok()) return s;
  return fs_->rmdir(path);
}

Status StorageManager::remove(const Principal& who, const std::string& path) {
  obs::Span span(obs::Layer::storage, "remove");
  MutexLock lock(mu_);
  const Status out = remove_locked(who, path);
  auto sealed = seal_batch_locked();
  if (!sealed.ok()) return Status{sealed.error()};
  lock.unlock();
  if (auto b = barrier(*sealed); !b.ok()) return b;
  return out;
}

Status StorageManager::remove_locked(const Principal& who,
                                     const std::string& path) {
  if (auto s = check(who, parent_path(path), Right::del); !s.ok()) return s;
  if (const auto* e = residency_.find(normalize_path(path))) {
    if (e->tier != hsm::Tier::cold)
      return Status{Errc::busy, "tier transition in progress"};
    const std::string norm = normalize_path(path);
    // not_found is fine: the half-copy may never have been created.
    (void)cold_fs_->remove(norm);
    residency_.erase(norm);
    batch_.hsm_erase(norm);
    lots_.release_file(norm);
    batch_.file_release(norm);
    return {};
  }
  const Status s = fs_->remove(path);
  if (s.ok()) {
    const std::string norm = normalize_path(path);
    lots_.release_file(norm);
    batch_.file_release(norm);
  }
  return s;
}

Result<FileStat> StorageManager::stat(const Principal& who,
                                      const std::string& path) const {
  obs::Span span(obs::Layer::storage, "stat");
  MutexLock lock(mu_);
  if (auto s = check(who, parent_path(path), Right::lookup); !s.ok())
    return s.error();
  // Cold files keep their place in the namespace: stat answers from the
  // residency map (the hot copy is gone; recalling entries still answer
  // from the map because the hot copy is partial).
  if (const auto* e = residency_.find(normalize_path(path));
      e != nullptr && e->tier != hsm::Tier::migrating) {
    FileStat st;
    st.size = e->size;
    st.owner = e->owner;
    return st;
  }
  return fs_->stat(path);
}

Result<std::vector<DirEntry>> StorageManager::list(
    const Principal& who, const std::string& path) const {
  obs::Span span(obs::Layer::storage, "list");
  MutexLock lock(mu_);
  if (auto s = check(who, path, Right::lookup); !s.ok()) return s.error();
  auto entries = fs_->list(path);
  if (!entries.ok() || residency_.empty()) return entries;
  // Merge in cold-resident children so migration does not make files
  // vanish from directory listings. Transitioning entries still have a
  // hot-side inode and are already listed.
  const std::string dir = normalize_path(path);
  std::set<std::string> present;
  for (const auto& e : *entries) present.insert(e.name);
  for (const auto& [cpath, ce] : residency_.entries()) {
    if (ce.tier != hsm::Tier::cold || parent_path(cpath) != dir) continue;
    const std::string name = cpath.substr(cpath.find_last_of('/') + 1);
    if (present.count(name)) continue;
    DirEntry de;
    de.name = name;
    de.size = ce.size;
    entries->push_back(std::move(de));
  }
  return entries;
}

Status StorageManager::rename(const Principal& who, const std::string& from,
                              const std::string& to) {
  obs::Span span(obs::Layer::storage, "rename");
  MutexLock lock(mu_);
  if (auto s = check(who, from, Right::del); !s.ok()) return s;
  if (residency_.find(normalize_path(from)) != nullptr)
    return Status{Errc::busy, "cold-resident file; recall before rename"};
  return fs_->rename(from, to);
}

Result<FileHandlePtr> StorageManager::open_for_append(
    const Principal& who, const std::string& path) {
  obs::Span span(obs::Layer::storage, "open_for_append");
  MutexLock lock(mu_);
  if (const auto* e = residency_.find(normalize_path(path))) {
    if (e->tier == hsm::Tier::migrating)
      return Error{Errc::busy, "tier transition in progress"};
    return Error{Errc::staging, "file resident on cold tier"};
  }
  auto handle = fs_->open(path);
  if (!handle.ok()) return handle.error();
  if (auto s = check(who, parent_path(path), Right::write); !s.ok())
    return s.error();
  return handle;
}

std::int64_t StorageManager::total_space() const {
  MutexLock lock(mu_);
  return fs_->total_space();
}

std::int64_t StorageManager::free_space() const {
  MutexLock lock(mu_);
  return fs_->free_space();
}

Result<TransferTicket> StorageManager::approve_read(const Principal& who,
                                                    const std::string& path) {
  obs::Span span(obs::Layer::storage, "approve_read");
  MutexLock lock(mu_);
  if (auto s = check(who, parent_path(path), Right::read); !s.ok())
    return s.error();
  // Cold data is never served directly: the read surfaces a retryable
  // staging error and the dispatcher kicks an asynchronous recall. A file
  // mid-migration still has a valid hot copy and reads normally.
  if (const auto* e = residency_.find(normalize_path(path));
      e != nullptr && e->tier != hsm::Tier::migrating) {
    return Error{Errc::staging, "file resident on cold tier; recall pending"};
  }
  auto handle = fs_->open(path);
  if (!handle.ok()) return handle.error();
  auto st = handle.value()->stat();
  TransferTicket t;
  t.path = normalize_path(path);
  t.user = who.name;
  t.handle = std::move(handle.value());
  if (st.ok()) {
    t.size = st->size;
    t.mtime = st->mtime;
  }
  return t;
}

Result<TransferTicket> StorageManager::approve_write(const Principal& who,
                                                     const std::string& path,
                                                     std::int64_t size) {
  obs::Span span(obs::Layer::storage, "approve_write");
  MutexLock lock(mu_);
  auto out = approve_write_locked(who, path, size);
  auto sealed = seal_batch_locked();
  if (!sealed.ok()) return sealed.error();
  lock.unlock();
  // An overwrite frees the old bytes here, outside mu_: create() keeps
  // them, and dropping a large file's blocks would otherwise hold every
  // metadata operation behind it. A failed truncate undoes the charges as
  // a failed create does.
  if (out.ok()) {
    if (Status s = out->handle->truncate(0); !s.ok()) {
      lock.lock();
      lots_.release_file(out->path);
      batch_.file_release(out->path);
      sealed = seal_batch_locked();
      if (!sealed.ok()) return sealed.error();
      lock.unlock();
      out = s.error();
    }
  }
  if (auto b = barrier(*sealed); !b.ok()) return b.error();
  return out;
}

Result<TransferTicket> StorageManager::approve_write_locked(
    const Principal& who, const std::string& path, std::int64_t size) {
  const std::string norm = normalize_path(path);
  if (auto s = check(who, parent_path(norm), Right::insert); !s.ok())
    return s.error();
  if (const auto* e = residency_.find(norm)) {
    if (e->tier != hsm::Tier::cold)
      return Error{Errc::busy, "tier transition in progress"};
    // Overwriting a cold file supersedes the cold copy outright.
    (void)cold_fs_->remove(norm);
    residency_.erase(norm);
    batch_.hsm_erase(norm);
  }
  TransferTicket t;
  t.path = norm;
  t.user = who.name;
  t.size = size;

  // Overwrites release the old charges first.
  lots_.release_file(norm);
  batch_.file_release(norm);

  // Lot admission: charge usable lots, spanning if needed.
  auto allocs = lots_.charge(who.name, who.groups, norm, size);
  if (allocs.ok()) {
    t.allocations = std::move(allocs.value());
    for (const auto& a : t.allocations) record_lot_locked(a.lot);
  } else if (allocs.code() == Errc::lot_unknown &&
             options_.allow_lotless_writes) {
    // No lot: admit against raw free space minus everything guaranteed.
    if (size > lots_.available_bytes()) {
      return Error{Errc::no_space, "no lot and free space is guaranteed"};
    }
  } else {
    return allocs.error();
  }

  auto handle = fs_->create(norm);
  if (!handle.ok()) {
    lots_.release_file(norm);
    batch_.file_release(norm);
    return handle.error();
  }
  fs_->set_owner(norm, who.name);
  t.handle = std::move(handle.value());
  return t;
}

Status StorageManager::charge_written(const Principal& who,
                                      const std::string& path,
                                      std::int64_t bytes) {
  MutexLock lock(mu_);
  const Status out = charge_written_locked(who, path, bytes);
  auto sealed = seal_batch_locked();
  if (!sealed.ok()) return Status{sealed.error()};
  lock.unlock();
  if (auto b = barrier(*sealed); !b.ok()) return b;
  return out;
}

Status StorageManager::charge_written_locked(const Principal& who,
                                             const std::string& path,
                                             std::int64_t bytes) {
  const std::string norm = normalize_path(path);
  lots_.release_file(norm);
  batch_.file_release(norm);
  auto allocs = lots_.charge(who.name, who.groups, norm, bytes);
  if (allocs.ok()) {
    for (const auto& a : *allocs) record_lot_locked(a.lot);
  } else if (allocs.code() == Errc::lot_unknown &&
             options_.allow_lotless_writes) {
    // Same admission rule as approve_write_locked — and the same error
    // class when it fails, so every protocol reports space exhaustion as
    // no_space rather than leaking the internal lot_unknown probe.
    if (bytes > lots_.available_bytes()) {
      return Status{
          Error{Errc::no_space, "no lot and free space is guaranteed"}};
    }
  } else {
    return Status{allocs.error()};
  }
  return {};
}

Result<LotId> StorageManager::lot_create(const Principal& who,
                                         std::int64_t capacity,
                                         Nanos duration, bool group_lot) {
  MutexLock lock(mu_);
  auto out = lot_create_locked(who, capacity, duration, group_lot);
  auto sealed = seal_batch_locked();
  if (!sealed.ok()) return sealed.error();
  lock.unlock();
  if (auto b = barrier(*sealed); !b.ok()) return b.error();
  return out;
}

Result<LotId> StorageManager::lot_create_locked(const Principal& who,
                                                std::int64_t capacity,
                                                Nanos duration,
                                                bool group_lot) {
  if (who.is_anonymous())
    return Error{Errc::not_authenticated, "lots require authentication"};
  const std::string owner =
      group_lot ? (who.groups.empty() ? std::string{} : who.groups.front())
                : who.name;
  if (owner.empty())
    return Error{Errc::invalid_argument, "group lot without group"};
  auto id = lots_.create(owner, capacity, duration, group_lot);
  if (id.ok()) record_lot_locked(*id);
  return id;
}

Status StorageManager::lot_renew(const Principal& who, LotId id,
                                 Nanos duration) {
  MutexLock lock(mu_);
  const Status out = lot_renew_locked(who, id, duration);
  auto sealed = seal_batch_locked();
  if (!sealed.ok()) return Status{sealed.error()};
  lock.unlock();
  if (auto b = barrier(*sealed); !b.ok()) return b;
  return out;
}

Status StorageManager::lot_renew_locked(const Principal& who, LotId id,
                                        Nanos duration) {
  auto lot = lots_.query(id);
  if (!lot.ok()) return lot.error();
  if (who.name != lot->owner && who.name != options_.superuser &&
      !(lot->group_lot &&
        std::find(who.groups.begin(), who.groups.end(), lot->owner) !=
            who.groups.end())) {
    return Status{Errc::permission_denied, "not lot owner"};
  }
  const Status s = lots_.renew(id, duration);
  if (s.ok()) record_lot_locked(id);
  return s;
}

Status StorageManager::lot_terminate(const Principal& who, LotId id) {
  MutexLock lock(mu_);
  const Status out = lot_terminate_locked(who, id);
  auto sealed = seal_batch_locked();
  if (!sealed.ok()) return Status{sealed.error()};
  lock.unlock();
  if (auto b = barrier(*sealed); !b.ok()) return b;
  return out;
}

Status StorageManager::lot_terminate_locked(const Principal& who, LotId id) {
  auto lot = lots_.query(id);
  if (!lot.ok()) return lot.error();
  if (who.name != lot->owner && who.name != options_.superuser &&
      !(lot->group_lot &&
        std::find(who.groups.begin(), who.groups.end(), lot->owner) !=
            who.groups.end())) {
    return Status{Errc::permission_denied, "not lot owner"};
  }
  const Status s = lots_.terminate(id);
  // terminate either erased the lot or left it best-effort; either way
  // the resulting state is what gets journaled.
  if (s.ok()) record_lot_locked(id);
  return s;
}

Status StorageManager::lot_set_replicas(const Principal& who, LotId id,
                                        std::int64_t replicas) {
  MutexLock lock(mu_);
  const Status out = lot_set_replicas_locked(who, id, replicas);
  auto sealed = seal_batch_locked();
  if (!sealed.ok()) return Status{sealed.error()};
  lock.unlock();
  if (auto b = barrier(*sealed); !b.ok()) return b;
  return out;
}

Status StorageManager::lot_set_replicas_locked(const Principal& who, LotId id,
                                               std::int64_t replicas) {
  if (replicas < 0)
    return Status{Errc::invalid_argument, "replicas must be >= 0"};
  auto lot = lots_.query(id);
  if (!lot.ok()) return lot.error();
  if (who.name != lot->owner && who.name != options_.superuser &&
      !(lot->group_lot &&
        std::find(who.groups.begin(), who.groups.end(), lot->owner) !=
            who.groups.end())) {
    return Status{Errc::permission_denied, "not lot owner"};
  }
  lot->replicas = replicas;
  lots_.restore_lot(std::move(*lot));
  record_lot_locked(id);
  return {};
}

bool StorageManager::owns_lot_locked(const Principal& who,
                                     const Lot& lot) const {
  return who.name == lot.owner || who.name == options_.superuser ||
         (lot.group_lot &&
          std::find(who.groups.begin(), who.groups.end(), lot.owner) !=
              who.groups.end());
}

Status StorageManager::lot_set_pin(const Principal& who, LotId id,
                                   bool pinned) {
  MutexLock lock(mu_);
  const Status out = lot_set_pin_locked(who, id, pinned);
  auto sealed = seal_batch_locked();
  if (!sealed.ok()) return Status{sealed.error()};
  lock.unlock();
  if (auto b = barrier(*sealed); !b.ok()) return b;
  return out;
}

Status StorageManager::lot_set_pin_locked(const Principal& who, LotId id,
                                          bool pinned) {
  auto lot = lots_.query(id);
  if (!lot.ok()) return lot.error();
  if (!owns_lot_locked(who, *lot))
    return Status{Errc::permission_denied, "not lot owner"};
  lot->pinned = pinned;
  lots_.restore_lot(std::move(*lot));
  record_lot_locked(id);
  return {};
}

void StorageManager::attach_cold_tier(std::unique_ptr<VirtualFs> cold) {
  MutexLock lock(mu_);
  cold_fs_ = std::move(cold);
}

bool StorageManager::cold_tier_attached() const {
  MutexLock lock(mu_);
  return cold_fs_ != nullptr;
}

Result<StorageManager::HsmTicket> StorageManager::hsm_begin_migrate(
    const Principal& who, const std::string& path) {
  obs::Span span(obs::Layer::storage, "hsm_begin_migrate");
  MutexLock lock(mu_);
  if (!cold_fs_) return Error{Errc::invalid_argument, "no cold tier attached"};
  const std::string norm = normalize_path(path);
  if (residency_.find(norm) != nullptr)
    return Error{Errc::busy, "already cold or tier transition in progress"};
  auto st = fs_->stat(norm);
  if (!st.ok()) return st.error();
  if (st->is_dir) return Error{Errc::is_dir, "cannot migrate a directory"};
  if (who.name != options_.superuser && who.name != st->owner)
    return Error{Errc::permission_denied, "not file owner"};
  for (const auto& lot : lots_.all_lots()) {
    if (lot.files.count(norm) == 0) continue;
    if (lot.pinned) return Error{Errc::busy, "charging lot is pinned"};
    if (!lot.best_effort)
      return Error{Errc::busy, "file charged to a live lot"};
  }
  auto src = fs_->open(norm);
  if (!src.ok()) return src.error();
  if (auto s = materialize_parents_locked(*cold_fs_, norm); !s.ok())
    return s.error();
  auto dst = cold_fs_->create(norm);
  if (!dst.ok()) return dst.error();
  if (auto s = (*dst)->truncate(0); !s.ok()) return s.error();
  cold_fs_->set_owner(norm, st->owner);
  HsmTicket t;
  t.path = norm;
  t.size = st->size;
  t.owner = st->owner;
  t.src = std::move(src.value());
  t.dst = std::move(dst.value());
  residency_.put(norm, hsm::ColdEntry{hsm::Tier::migrating, t.size, t.owner});
  return t;
}

Status StorageManager::hsm_commit_migrate(const HsmTicket& t) {
  obs::Span span(obs::Layer::storage, "hsm_commit_migrate");
  journal::Lsn lsn = 0;
  {
    MutexLock lock(mu_);
    const auto* e = residency_.find(t.path);
    if (e == nullptr || e->tier != hsm::Tier::migrating)
      return Status{Errc::invalid_argument, "no migration in flight"};
    residency_.set_tier(t.path, hsm::Tier::cold);
    batch_.hsm_put(t.path, t.size, t.owner);
    lots_.release_file(t.path);
    batch_.file_release(t.path);
    auto sealed = seal_batch_locked();
    if (!sealed.ok()) return Status{sealed.error()};
    lsn = *sealed;
  }
  if (auto b = barrier(lsn); !b.ok()) return b;
  {
    // The hot copy is deleted only after the residency record is durable:
    // a crash in between leaves both copies (the caught-by-design double-
    // residency window) and hsm_recover finishes the delete. Re-check the
    // entry — an overwrite racing the barrier owns the path now.
    MutexLock lock(mu_);
    const auto* e = residency_.find(t.path);
    // Hot-copy delete is best-effort: hsm_recover re-scrubs a survivor.
    if (e != nullptr && e->tier == hsm::Tier::cold) (void)fs_->remove(t.path);
  }
  return {};
}

void StorageManager::hsm_abort_migrate(const std::string& path) {
  MutexLock lock(mu_);
  const std::string norm = normalize_path(path);
  const auto* e = residency_.find(norm);
  if (e == nullptr || e->tier != hsm::Tier::migrating) return;
  residency_.erase(norm);
  // Abort cleanup is best-effort: the orphan is GC'd by hsm_recover.
  if (cold_fs_) (void)cold_fs_->remove(norm);
}

Result<StorageManager::HsmTicket> StorageManager::hsm_begin_recall(
    const Principal& who, const std::string& path) {
  obs::Span span(obs::Layer::storage, "hsm_begin_recall");
  MutexLock lock(mu_);
  if (!cold_fs_) return Error{Errc::invalid_argument, "no cold tier attached"};
  const std::string norm = normalize_path(path);
  if (auto s = check(who, parent_path(norm), Right::read); !s.ok())
    return s.error();
  const auto* e = residency_.find(norm);
  if (e == nullptr) return Error{Errc::not_found, "not cold-resident"};
  if (e->tier == hsm::Tier::recalling)
    return Error{Errc::busy, "recall in progress"};
  if (e->tier != hsm::Tier::cold)
    return Error{Errc::busy, "tier transition in progress"};
  // Re-admission: the recalled bytes come back as a lot-less hot file, so
  // they must fit the space not guaranteed to live lots.
  if (e->size > lots_.available_bytes())
    return Error{Errc::no_space, "free space is guaranteed to live lots"};
  auto src = cold_fs_->open(norm);
  if (!src.ok()) return src.error();
  if (auto s = materialize_parents_locked(*fs_, norm); !s.ok())
    return s.error();
  auto dst = fs_->create(norm);
  if (!dst.ok()) return dst.error();
  if (auto s = (*dst)->truncate(0); !s.ok()) return s.error();
  fs_->set_owner(norm, e->owner);
  HsmTicket t;
  t.path = norm;
  t.size = e->size;
  t.owner = e->owner;
  t.src = std::move(src.value());
  t.dst = std::move(dst.value());
  residency_.set_tier(norm, hsm::Tier::recalling);
  return t;
}

Status StorageManager::hsm_commit_recall(const HsmTicket& t) {
  obs::Span span(obs::Layer::storage, "hsm_commit_recall");
  journal::Lsn lsn = 0;
  {
    MutexLock lock(mu_);
    const auto* e = residency_.find(t.path);
    if (e == nullptr || e->tier != hsm::Tier::recalling)
      return Status{Errc::invalid_argument, "no recall in flight"};
    residency_.erase(t.path);
    batch_.hsm_erase(t.path);
    auto sealed = seal_batch_locked();
    if (!sealed.ok()) return Status{sealed.error()};
    lsn = *sealed;
  }
  if (auto b = barrier(lsn); !b.ok()) return b;
  {
    // Mirror of the migrate commit: the cold copy outlives the barrier so
    // a crash never leaves the bytes only in flight. Skip the delete if a
    // new migration already reclaimed the cold path.
    MutexLock lock(mu_);
    // Cold-copy delete is best-effort: hsm_recover re-scrubs a survivor.
    if (residency_.find(t.path) == nullptr) (void)cold_fs_->remove(t.path);
  }
  return {};
}

void StorageManager::hsm_abort_recall(const std::string& path) {
  MutexLock lock(mu_);
  const std::string norm = normalize_path(path);
  const auto* e = residency_.find(norm);
  if (e == nullptr || e->tier != hsm::Tier::recalling) return;
  residency_.set_tier(norm, hsm::Tier::cold);
  (void)fs_->remove(norm);  // partial hot copy
}

Result<hsm::Tier> StorageManager::hsm_tier(const Principal& who,
                                           const std::string& path) const {
  MutexLock lock(mu_);
  const std::string norm = normalize_path(path);
  if (auto s = check(who, parent_path(norm), Right::lookup); !s.ok())
    return s.error();
  if (const auto* e = residency_.find(norm)) return e->tier;
  auto st = fs_->stat(norm);
  if (!st.ok()) return st.error();
  return hsm::Tier::hot;
}

StorageManager::HsmStats StorageManager::hsm_stats() const {
  MutexLock lock(mu_);
  HsmStats out;
  out.cold_files = static_cast<std::int64_t>(residency_.count(hsm::Tier::cold));
  out.cold_bytes = residency_.cold_bytes();
  out.migrating =
      static_cast<std::int64_t>(residency_.count(hsm::Tier::migrating));
  out.recalling =
      static_cast<std::int64_t>(residency_.count(hsm::Tier::recalling));
  return out;
}

std::vector<std::string> StorageManager::hsm_migration_candidates(
    std::size_t max) const {
  MutexLock lock(mu_);
  if (!cold_fs_ || max == 0) return {};
  // A file is drainable only if EVERY lot charging it is best-effort and
  // none is pinned (a file may span lots).
  std::map<std::string, bool> eligible;
  for (const auto& lot : lots_.all_lots()) {
    const bool drainable = lot.best_effort && !lot.pinned;
    for (const auto& [path, bytes] : lot.files) {
      auto [it, inserted] = eligible.try_emplace(path, drainable);
      if (!inserted) it->second = it->second && drainable;
    }
  }
  std::vector<std::string> out;
  for (const auto& [path, ok] : eligible) {
    if (!ok || residency_.find(path) != nullptr) continue;
    auto st = fs_->stat(path);
    if (!st.ok() || st->is_dir) continue;
    out.push_back(path);
    if (out.size() >= max) break;
  }
  return out;
}

Status StorageManager::hsm_recover() {
  MutexLock lock(mu_);
  if (!cold_fs_) return {};
  // Every replayed entry is stable (only cold residency is journaled).
  // Resolve each against the two filesystems: the cold copy is
  // authoritative, a surviving hot copy is the unfinished tail of a
  // migrate/recall commit (or a partial recall) and is deleted.
  std::vector<std::string> paths;
  paths.reserve(residency_.size());
  for (const auto& [path, e] : residency_.entries()) paths.push_back(path);
  for (const auto& path : paths) {
    if (!cold_fs_->stat(path).ok()) {
      // The protocol journals residency only after the cold copy is fully
      // written, so a missing cold file means the cold device lost data.
      // Fall back to a hot copy if one survives; otherwise the file is
      // gone and the entry goes with it.
      NEST_LOG_WARN("hsm", "cold copy of %s missing at recovery",
                    path.c_str());
      residency_.erase(path);
      batch_.hsm_erase(path);
      continue;
    }
    // Stray-hot delete is best-effort: the next scrub retries it.
    if (fs_->stat(path).ok()) (void)fs_->remove(path);
  }
  // GC cold files the journal does not know about: aborted migrations
  // whose entries never committed.
  std::vector<std::string> stack{"/"};
  while (!stack.empty()) {
    const std::string dir = stack.back();
    stack.pop_back();
    auto entries = cold_fs_->list(dir);
    if (!entries.ok()) continue;
    for (const auto& e : *entries) {
      const std::string path = join_path(dir, e.name);
      if (e.is_dir) {
        stack.push_back(path);
      } else if (residency_.find(path) == nullptr) {
        // Best-effort GC: a surviving orphan is re-scrubbed next recovery.
        (void)cold_fs_->remove(path);
      }
    }
  }
  auto sealed = seal_batch_locked();
  if (!sealed.ok()) return Status{sealed.error()};
  lock.unlock();
  return barrier(*sealed);
}

std::int64_t StorageManager::replicas_for(const std::string& path) const {
  MutexLock lock(mu_);
  std::int64_t want = 0;
  const std::string norm = normalize_path(path);
  for (const auto& lot : lots_.all_lots()) {
    if (lot.replicas > want && lot.files.count(norm)) want = lot.replicas;
  }
  return want;
}

Result<Lot> StorageManager::lot_query(const Principal& who, LotId id) const {
  MutexLock lock(mu_);
  auto lot = lots_.query(id);
  if (!lot.ok()) return lot.error();
  if (who.name != lot->owner && who.name != options_.superuser &&
      !(lot->group_lot &&
        std::find(who.groups.begin(), who.groups.end(), lot->owner) !=
            who.groups.end())) {
    return Error{Errc::permission_denied, "not lot owner"};
  }
  return lot;
}

std::vector<Lot> StorageManager::lots_of(const Principal& who) const {
  MutexLock lock(mu_);
  return lots_.lots_of(who.name);
}

std::vector<Lot> StorageManager::lot_list(const Principal& who) const {
  MutexLock lock(mu_);
  if (who.authenticated && who.name == options_.superuser)
    return lots_.all_lots();
  return lots_.lots_of(who.name);
}

Status StorageManager::acl_set(const Principal& who, const std::string& dir,
                               const classad::ClassAd& entry) {
  MutexLock lock(mu_);
  Status out = check(who, dir, Right::admin);
  if (out.ok()) {
    out = acl_.set_entry(dir, entry);
    if (out.ok()) batch_.acl_put(normalize_path(dir), entry.to_string());
  }
  auto sealed = seal_batch_locked();
  if (!sealed.ok()) return Status{sealed.error()};
  lock.unlock();
  if (auto b = barrier(*sealed); !b.ok()) return b;
  return out;
}

Status StorageManager::acl_clear(const Principal& who, const std::string& dir,
                                 const std::string& principal_spec) {
  MutexLock lock(mu_);
  Status out = check(who, dir, Right::admin);
  if (out.ok()) {
    out = acl_.clear_entries(dir, principal_spec);
    if (out.ok()) batch_.acl_clear(normalize_path(dir), principal_spec);
  }
  auto sealed = seal_batch_locked();
  if (!sealed.ok()) return Status{sealed.error()};
  lock.unlock();
  if (auto b = barrier(*sealed); !b.ok()) return b;
  return out;
}

Result<std::vector<std::string>> StorageManager::acl_get(
    const Principal& who, const std::string& dir) const {
  MutexLock lock(mu_);
  if (auto s = check(who, dir, Right::lookup); !s.ok()) return s.error();
  return acl_.describe(dir);
}

classad::ClassAd StorageManager::resource_ad() const {
  MutexLock lock(mu_);
  classad::ClassAd ad;
  ad.insert("Type", classad::Value::string("Storage"));
  ad.insert("Name", classad::Value::string("NeST"));
  ad.insert("TotalSpace", classad::Value::integer(fs_->total_space()));
  ad.insert("UsedSpace", classad::Value::integer(fs_->used_space()));
  ad.insert("FreeSpace", classad::Value::integer(fs_->free_space()));
  ad.insert("AvailableLotSpace",
            classad::Value::integer(lots_.available_bytes()));
  ad.insert("ReclaimableSpace",
            classad::Value::integer(lots_.reclaimable_bytes()));
  if (cold_fs_) {
    ad.insert("ColdTotalSpace",
              classad::Value::integer(cold_fs_->total_space()));
    ad.insert("ColdUsedSpace", classad::Value::integer(cold_fs_->used_space()));
    ad.insert("ColdFiles",
              classad::Value::integer(static_cast<std::int64_t>(
                  residency_.count(hsm::Tier::cold))));
    ad.insert("ColdBytes", classad::Value::integer(residency_.cold_bytes()));
  }
  auto protocols = std::make_shared<std::vector<classad::Value>>();
  for (const char* p : {"chirp", "http", "ftp", "gridftp", "nfs"})
    protocols->push_back(classad::Value::string(p));
  ad.insert("Protocols", classad::Value::list(std::move(protocols)));

  // Data availability (paper Section 2.1: the dispatcher consolidates
  // "resource and data availability"): file count plus a capped listing so
  // matchmakers can ask member("/path", other.Files) — replica selection
  // over the discovery system.
  constexpr std::size_t kMaxAdvertisedFiles = 64;
  auto files = std::make_shared<std::vector<classad::Value>>();
  std::int64_t file_count = 0;
  std::vector<std::string> stack{"/"};
  while (!stack.empty()) {
    const std::string dir = stack.back();
    stack.pop_back();
    auto entries = fs_->list(dir);
    if (!entries.ok()) continue;
    for (const auto& e : *entries) {
      const std::string path = join_path(dir, e.name);
      if (e.is_dir) {
        stack.push_back(path);
      } else {
        ++file_count;
        if (files->size() < kMaxAdvertisedFiles) {
          files->push_back(classad::Value::string(path));
        }
      }
    }
  }
  ad.insert("FileCount", classad::Value::integer(file_count));
  ad.insert("FilesTruncated",
            classad::Value::boolean(
                file_count > static_cast<std::int64_t>(files->size())));
  ad.insert("Files", classad::Value::list(std::move(files)));
  return ad;
}

}  // namespace nest::storage

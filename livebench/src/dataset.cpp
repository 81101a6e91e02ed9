#include "dataset.h"

#include <limits>
#include <memory>
#include <span>
#include <sstream>

#include "common/clock.h"
#include "journal/journal.h"
#include "metrics.h"
#include "storage/localfs.h"
#include "storage/storage_manager.h"

namespace livebench {

using nest::Errc;
using nest::Error;
using nest::Result;
using nest::Status;

namespace {

constexpr nest::Nanos kSeededLotLifetime = 30LL * 24 * 3600 * nest::kSecond;

Status write_file(nest::storage::StorageManager& sm,
                  const nest::storage::Principal& who, const std::string& path,
                  const std::string& content) {
  auto ticket =
      sm.approve_write(who, path, static_cast<std::int64_t>(content.size()));
  if (!ticket.ok()) return Status{ticket.error()};
  auto n = ticket->handle->pwrite(
      std::span<const char>(content.data(), content.size()), 0);
  if (!n.ok()) return Status{n.error()};
  if (*n != static_cast<std::int64_t>(content.size()))
    return Status{Errc::io_error, "short seed write of " + path};
  return {};
}

}  // namespace

DataSet DataSet::make(std::uint64_t seed, Workload w) {
  DataSet d;
  for (std::uint32_t i = 0; i < kSmallFiles; ++i) {
    const std::string c = seeded_content(seed, small_id(i), kSmallBytes);
    d.small_hash.push_back(hash_bytes(c));
  }
  for (std::uint32_t i = 0; i < kBulkFiles; ++i) {
    const std::string c = seeded_content(seed, bulk_id(i), kBulkBytes);
    d.bulk_hash.push_back(hash_bytes(c));
  }
  if (w == Workload::bulk_fig3) {
    for (std::uint32_t p = 0; p < kStorPayloads; ++p) {
      d.stor_body.push_back(seeded_content(seed, stor_id(p), kBulkBytes));
      d.stor_hash.push_back(hash_bytes(d.stor_body.back()));
    }
  }
  for (int s = 0; s < kSessions; ++s) {
    d.meta_body.push_back(seeded_content(seed, meta_id(s), kMetaBytes));
    d.meta_hash.push_back(hash_bytes(d.meta_body.back()));
  }
  return d;
}

Result<std::vector<std::uint64_t>> seed_storage(const std::string& root,
                                                const std::string& journal_dir,
                                                std::uint64_t seed) {
  auto& clock = nest::RealClock::instance();
  auto fs = nest::storage::LocalFs::open_root(root, kCapacity);
  if (!fs.ok()) return fs.error();
  nest::journal::JournalOptions jopts;
  jopts.dir = journal_dir;
  jopts.sync = nest::journal::SyncMode::always;
  auto journal = nest::journal::Journal::open(clock, jopts);
  if (!journal.ok()) return journal.error();
  nest::storage::StorageOptions sopts;
  sopts.journal_snapshot_every = std::numeric_limits<std::uint64_t>::max();
  auto sm = std::make_unique<nest::storage::StorageManager>(
      clock, std::move(fs.value()), sopts);
  if (auto s = sm->attach_journal(**journal); !s.ok()) return s.error();

  const nest::storage::Principal seeder{
      .name = kSeedOwner, .groups = {}, .authenticated = true,
      .protocol = "chirp"};
  for (const std::string dir : {"/small", "/bulk", "/meta"}) {
    if (auto s = sm->mkdir(seeder, dir); !s.ok()) return s.error();
  }
  for (int s = 0; s < kSessions; ++s) {
    if (auto st = sm->mkdir(seeder, meta_dir(s)); !st.ok()) return st.error();
  }
  for (std::uint32_t i = 0; i < kSmallFiles; ++i) {
    if (auto s = write_file(*sm, seeder, small_path(i),
                            seeded_content(seed, small_id(i), kSmallBytes));
        !s.ok()) {
      return s.error();
    }
  }
  for (std::uint32_t i = 0; i < kBulkFiles; ++i) {
    if (auto s = write_file(*sm, seeder, bulk_path(i),
                            seeded_content(seed, bulk_id(i), kBulkBytes));
        !s.ok()) {
      return s.error();
    }
  }
  std::vector<std::uint64_t> lots;
  for (int i = 0; i < kSeededLots + kSeedChurnLots; ++i) {
    auto id = sm->lot_create(seeder, kSeededLotBytes, kSeededLotLifetime);
    if (!id.ok()) return id.error();
    if (i < kSeededLots) {
      lots.push_back(*id);
    } else if (auto s = sm->lot_terminate(seeder, *id); !s.ok()) {
      return s.error();
    }
  }
  sm.reset();  // detach before the journal closes
  return lots;
}

std::string nestd_config(const std::string& root,
                         const std::string& journal_dir) {
  std::ostringstream os;
  os << "# written by livebench; every other key stays at the nestd default\n"
     << "backend = local\n"
     << "root = " << root << "\n"
     << "journal = " << journal_dir << "\n"
     << "journal_sync = always\n"
     << "adaptive = false\n"
     << "chirp_port = 0\nhttp_port = 0\nftp_port = 0\ngridftp_port = 0\n"
     << "nfs_port = 0\n";
  for (const std::string user :
       {"root", "reader", "u0", "u1", "u2", "u3", "gftp"}) {
    os << "user." << user << " = " << secret_of(user) << "\n";
  }
  return os.str();
}

}  // namespace livebench

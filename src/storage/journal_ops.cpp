#include "storage/journal_ops.h"

#include "classad/classad.h"

namespace nest::storage {

namespace {

using journal::RecordReader;
using journal::RecordWriter;

enum class Tag : std::uint8_t {
  lot_put = 1,
  lot_erase = 2,
  lot_expire = 3,
  file_release = 4,
  acl_put = 5,
  acl_clear = 6,
  // Retired: a quota account (owner, limit, used), written by builds that
  // metered writes through a user-level quota ledger. Lots are the only
  // space ledger now; replay reads past this record so those builds'
  // journals still recover. Nothing writes it, and no record may reuse 7.
  retired_quota = 7,
  hsm_put = 8,
  hsm_erase = 9,
};

// v2 added the per-lot replica policy to the lot record (cluster
// federation); v3 added the lot pin flag and the HSM residency section.
// Journals are rewritten from a fresh snapshot on every compaction, so no
// cross-version reader is kept.
constexpr std::uint32_t kSnapshotVersion = 3;

void encode_lot(RecordWriter& w, const Lot& lot) {
  w.u64(lot.id);
  w.str(lot.owner);
  w.u8(lot.group_lot ? 1 : 0);
  w.i64(lot.capacity);
  w.i64(lot.used);
  w.i64(lot.expiry);
  w.u8(lot.best_effort ? 1 : 0);
  w.i64(lot.last_use);
  w.i64(lot.replicas);
  w.u8(lot.pinned ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(lot.files.size()));
  for (const auto& [path, bytes] : lot.files) {
    w.str(path);
    w.i64(bytes);
  }
}

// Decodes one lot record. Like every getter it reads 0s past the end of
// the payload, so the caller checks r.good() before it installs the lot.
Lot decode_lot(RecordReader& r) {
  Lot lot;
  lot.id = r.u64();
  lot.owner = r.str();
  lot.group_lot = r.u8() != 0;
  lot.capacity = r.i64();
  lot.used = r.i64();
  lot.expiry = r.i64();
  lot.best_effort = r.u8() != 0;
  lot.last_use = r.i64();
  lot.replicas = r.i64();
  lot.pinned = r.u8() != 0;
  const std::uint32_t nfiles = r.u32();
  for (std::uint32_t i = 0; i < nfiles && r.good(); ++i) {
    const std::string_view path = r.str();
    const std::int64_t bytes = r.i64();
    // Encoded from a map, so paths arrive sorted: the end hint is exact.
    lot.files.insert_or_assign(lot.files.end(), std::string(path), bytes);
  }
  return lot;
}

// Reads past one retired quota account (Tag::retired_quota; the
// snapshot's quota section holds the same triple per account) with the
// bounds checks of every getter, and installs nothing.
void skip_retired_quota(RecordReader& r) {
  (void)r.str();  // owner
  r.skip(2 * sizeof(std::int64_t));  // limit, used
}

Error underflow() {
  return Error{Errc::protocol_error, "journal record underflow"};
}

}  // namespace

void MetaBatch::lot_put(const Lot& lot) {
  body_.u8(static_cast<std::uint8_t>(Tag::lot_put));
  encode_lot(body_, lot);
  ++count_;
}

void MetaBatch::lot_erase(LotId id) {
  body_.u8(static_cast<std::uint8_t>(Tag::lot_erase));
  body_.u64(id);
  ++count_;
}

void MetaBatch::lot_expire(LotId id) {
  body_.u8(static_cast<std::uint8_t>(Tag::lot_expire));
  body_.u64(id);
  ++count_;
}

void MetaBatch::file_release(const std::string& path) {
  body_.u8(static_cast<std::uint8_t>(Tag::file_release));
  body_.str(path);
  ++count_;
}

void MetaBatch::acl_put(const std::string& dir,
                        const std::string& entry_text) {
  body_.u8(static_cast<std::uint8_t>(Tag::acl_put));
  body_.str(dir);
  body_.str(entry_text);
  ++count_;
}

void MetaBatch::acl_clear(const std::string& dir,
                          const std::string& principal) {
  body_.u8(static_cast<std::uint8_t>(Tag::acl_clear));
  body_.str(dir);
  body_.str(principal);
  ++count_;
}

void MetaBatch::hsm_put(const std::string& path, std::int64_t size,
                        const std::string& owner) {
  body_.u8(static_cast<std::uint8_t>(Tag::hsm_put));
  body_.str(path);
  body_.i64(size);
  body_.str(owner);
  ++count_;
}

void MetaBatch::hsm_erase(const std::string& path) {
  body_.u8(static_cast<std::uint8_t>(Tag::hsm_erase));
  body_.str(path);
  ++count_;
}

std::string MetaBatch::seal(Nanos now) {
  RecordWriter head;
  head.i64(now);
  head.u32(count_);
  std::string out = head.take();
  out += body_.take();
  clear();
  return out;
}

void MetaBatch::clear() {
  body_ = journal::RecordWriter{};
  count_ = 0;
}

Result<Nanos> apply_meta_batch(std::string_view payload,
                               const MetaState& state) {
  RecordReader r(payload);
  const Nanos ts = r.i64();
  const std::uint32_t count = r.u32();
  // Each case decodes its record, then installs it only if every field
  // was there; the first short record ends the loop.
  for (std::uint32_t i = 0; i < count && r.good(); ++i) {
    const auto tag = static_cast<Tag>(r.u8());
    if (!r.good()) break;
    switch (tag) {
      case Tag::lot_put: {
        Lot lot = decode_lot(r);
        if (r.good()) state.lots.restore_lot(std::move(lot));
        break;
      }
      case Tag::lot_erase: {
        const LotId id = r.u64();
        if (r.good()) state.lots.erase_lot(id);
        break;
      }
      case Tag::lot_expire: {
        const LotId id = r.u64();
        if (r.good()) state.lots.apply_expire(id);
        break;
      }
      case Tag::file_release: {
        const std::string_view path = r.str();
        if (r.good()) state.lots.release_file(std::string(path));
        break;
      }
      case Tag::acl_put: {
        const std::string_view dir = r.str();
        const std::string_view text = r.str();
        if (!r.good()) break;
        auto entry = classad::ClassAd::parse(text);
        if (!entry.ok()) return entry.error();
        if (auto s = state.acl.set_entry(std::string(dir), *entry); !s.ok())
          return s.error();
        break;
      }
      case Tag::acl_clear: {
        const std::string_view dir = r.str();
        const std::string_view spec = r.str();
        if (!r.good()) break;
        // not_found is fine on replay: the entry may already be gone in
        // a snapshot-covered prefix.
        (void)state.acl.clear_entries(std::string(dir), std::string(spec));
        break;
      }
      case Tag::retired_quota:
        skip_retired_quota(r);
        break;
      case Tag::hsm_put: {
        const std::string_view path = r.str();
        const std::int64_t size = r.i64();
        const std::string_view owner = r.str();
        if (r.good()) {
          state.residency.put(
              std::string(path),
              hsm::ColdEntry{hsm::Tier::cold, size, std::string(owner)});
        }
        break;
      }
      case Tag::hsm_erase: {
        const std::string_view path = r.str();
        if (r.good()) state.residency.erase(std::string(path));
        break;
      }
      default:
        return Error{Errc::protocol_error, "unknown journal record tag"};
    }
  }
  if (!r.good()) return underflow();
  return ts;
}

std::string encode_meta_snapshot(Nanos now, const MetaState& state) {
  RecordWriter w;
  w.u32(kSnapshotVersion);
  w.i64(now);
  w.u64(state.lots.next_id());
  const auto lots = state.lots.all_lots();
  w.u32(static_cast<std::uint32_t>(lots.size()));
  for (const auto& lot : lots) encode_lot(w, lot);
  const auto acl_entries = state.acl.export_entries();
  w.u32(static_cast<std::uint32_t>(acl_entries.size()));
  for (const auto& [dir, text] : acl_entries) {
    w.str(dir);
    w.str(text);
  }
  // The retired quota section (see Tag::retired_quota), always empty: the
  // count keeps snapshot format 3 readable by earlier builds.
  w.u32(0);
  // Snapshot only the stable entries: a snapshot taken mid-migration must
  // resolve the same way a crash would (hot copy still authoritative until
  // the commit record lands).
  std::uint32_t ncold = 0;
  for (const auto& [path, e] : state.residency.entries()) {
    if (e.tier == hsm::Tier::cold || e.tier == hsm::Tier::recalling) ++ncold;
  }
  w.u32(ncold);
  for (const auto& [path, e] : state.residency.entries()) {
    if (e.tier != hsm::Tier::cold && e.tier != hsm::Tier::recalling) continue;
    w.str(path);
    w.i64(e.size);
    w.str(e.owner);
  }
  return w.take();
}

Result<Nanos> apply_meta_snapshot(std::string_view payload,
                                  const MetaState& state) {
  RecordReader r(payload);
  const std::uint32_t version = r.u32();
  if (r.good() && version != kSnapshotVersion)
    return Error{Errc::unsupported, "snapshot version mismatch"};
  const Nanos ts = r.i64();
  const LotId next_id = r.u64();
  const std::uint32_t nlots = r.u32();
  for (std::uint32_t i = 0; i < nlots && r.good(); ++i) {
    Lot lot = decode_lot(r);
    if (r.good()) state.lots.restore_lot(std::move(lot));
  }
  if (!r.good()) return underflow();
  // restore_lot advances next_id past the highest id; the recorded value
  // also covers ids handed out and then erased.
  if (next_id > state.lots.next_id()) state.lots.set_next_id(next_id);
  const std::uint32_t nacl = r.u32();
  std::vector<std::pair<std::string, std::string>> entries;
  for (std::uint32_t i = 0; i < nacl && r.good(); ++i) {
    const std::string_view dir = r.str();
    const std::string_view text = r.str();
    entries.emplace_back(dir, text);
  }
  if (!r.good()) return underflow();
  state.acl.import_entries(entries);
  // Earlier builds wrote quota accounts here; read past them.
  const std::uint32_t nquota = r.u32();
  for (std::uint32_t i = 0; i < nquota && r.good(); ++i)
    skip_retired_quota(r);
  const std::uint32_t nhsm = r.u32();
  for (std::uint32_t i = 0; i < nhsm && r.good(); ++i) {
    const std::string_view path = r.str();
    const std::int64_t size = r.i64();
    const std::string_view owner = r.str();
    if (r.good()) {
      state.residency.put(
          std::string(path),
          hsm::ColdEntry{hsm::Tier::cold, size, std::string(owner)});
    }
  }
  if (!r.good()) return underflow();
  return ts;
}

}  // namespace nest::storage

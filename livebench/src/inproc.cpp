#include "inproc.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <type_traits>

#include "common/clock.h"
#include "dispatcher/dispatcher.h"
#include "journal/journal.h"
#include "metrics.h"
#include "protocol/executor.h"
#include "protocol/nfs_handler.h"
#include "protocol/request.h"
#include "storage/localfs.h"
#include "storage/storage_manager.h"
#include "transfer/transfer_manager.h"

namespace livebench {

using nest::Errc;
using nest::Error;
using nest::Result;
using nest::Status;
namespace protocol = nest::protocol;
namespace storage = nest::storage;
using Clock = std::chrono::steady_clock;

const char* call_name(Call c) {
  switch (c) {
    case Call::execute: return "dispatcher.execute";
    case Call::approve_get: return "dispatcher.approve_get";
    case Call::approve_put: return "dispatcher.approve_put";
    case Call::read_block: return "transfer.read_block";
    case Call::write_block: return "transfer.write_block";
    case Call::lot_create: return "storage.lot_create";
    case Call::lot_terminate: return "storage.lot_terminate";
    case Call::stat: return "storage.stat";
    case Call::remove: return "storage.remove";
    case Call::approve_read: return "storage.approve_read";
    case Call::approve_write: return "storage.approve_write";
    case Call::charge_written: return "storage.charge_written";
    case Call::pread: return "storage.pread";
    case Call::pwrite: return "storage.pwrite";
    case Call::kCount: break;
  }
  return "?";
}

bool is_storage_call(Call c) {
  return c >= Call::lot_create && c <= Call::charge_written;
}

namespace {

constexpr std::int64_t kWireBlock = 64 * 1024;  // nestd's default block_bytes

// The stack NestServer::init assembles, minus sockets: local backend,
// journal (recovered here exactly as at nestd start-up), transfer manager,
// dispatcher and executor, with nestd's defaults and the benchmark's
// settings (adaptive = false, journal_sync = always).
struct Stack {
  std::unique_ptr<nest::journal::Journal> journal;
  std::unique_ptr<storage::StorageManager> storage;
  std::unique_ptr<nest::transfer::TransferManager> tm;
  std::unique_ptr<nest::dispatcher::Dispatcher> dispatcher;
  std::unique_ptr<protocol::TransferExecutor> executor;

  ~Stack() {
    executor.reset();
    dispatcher.reset();
    tm.reset();
    storage.reset();
    journal.reset();
  }
};

Result<std::unique_ptr<Stack>> build_stack(const std::string& root,
                                           const std::string& journal_dir) {
  auto& clock = nest::RealClock::instance();
  auto stack = std::make_unique<Stack>();
  auto fs = storage::LocalFs::open_root(root, kCapacity);
  if (!fs.ok()) return fs.error();
  storage::StorageOptions sopts;
  sopts.journal_snapshot_every = 4096;
  stack->storage = std::make_unique<storage::StorageManager>(
      clock, std::move(fs.value()), sopts);
  nest::journal::JournalOptions jopts;
  jopts.dir = journal_dir;
  jopts.sync = nest::journal::SyncMode::always;
  auto j = nest::journal::Journal::open(clock, jopts);
  if (!j.ok()) return j.error();
  stack->journal = std::move(j.value());
  if (auto s = stack->storage->attach_journal(*stack->journal); !s.ok())
    return s.error();
  nest::transfer::TransferManager::Options topts;
  topts.adaptive = false;
  stack->tm = std::make_unique<nest::transfer::TransferManager>(clock, topts);
  nest::dispatcher::Dispatcher::Options dopts;
  stack->dispatcher = std::make_unique<nest::dispatcher::Dispatcher>(
      clock, *stack->storage, *stack->tm, dopts);
  stack->executor = std::make_unique<protocol::TransferExecutor>(
      clock, *stack->tm, stack->dispatcher->core(), kWireBlock, 0);
  return stack;
}

enum class Level { dispatcher, storage };

// One session's replay at one level. Each call is a span; the op's total
// and its entry-point share accumulate per op class.
class Replayer {
 public:
  Replayer(Level level, Stack& stack, Workload w, int session,
           std::uint64_t seed, const DataSet& data, PassStats& ps)
      : level_(level),
        stack_(stack),
        w_(w),
        session_(session),
        spec_(sessions_of(w).at(static_cast<std::size_t>(session))),
        who_(principal_of(spec_)),
        data_(data),
        ps_(ps),
        stream_(w, seed, session),
        buf_(static_cast<std::size_t>(kWireBlock)) {}

  // `interval` paces ops at the wire pass's per-session rate, so lock and
  // journal contention match the wire's; zero runs a closed loop.
  void run(Clock::time_point deadline, Clock::duration interval) {
    const int cycle = cycle_len(w_, spec_.proto);
    auto due = Clock::now();
    for (std::int64_t sent = 0;; ++sent) {
      if (sent % cycle == 0 && Clock::now() >= deadline) break;
      while (Clock::now() < due) std::this_thread::yield();
      due += interval;
      const Op op = stream_.next();
      op_total_ = 0;
      entry_total_ = 0;
      const Status s = execute(op);
      ++ps_.ops;
      if (!s.ok()) {
        ++ps_.failed;
        if (ps_.first_error.empty()) ps_.first_error = s.to_string();
      }
      const int key = op_key(spec_.proto, op.kind);
      ps_.op_us[key].add(op_total_);
      ps_.entry_us[key].add(entry_total_);
    }
  }

 private:
  template <typename F>
  auto timed(Call c, F&& f) {
    const auto t0 = Clock::now();
    auto r = f();
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    ps_.call_us[static_cast<std::size_t>(c)].push_back(us);
    op_total_ += us;
    const bool entry = level_ == Level::dispatcher
                           ? c <= Call::approve_put
                           : is_storage_call(c);
    if (entry) entry_total_ += us;
    if constexpr (std::is_same_v<decltype(r), Result<std::int64_t>>) {
      if (!r.ok()) return r;
      const std::int64_t n = *r;
      if (c == Call::read_block || c == Call::pread) {
        ps_.block_read_us[n].add(us);
      } else {
        ps_.block_write_us[n].add(us);
      }
      if (c == Call::pread) {
        ps_.pread_s += us / 1e6;
        ps_.pread_bytes += n;
      } else if (c == Call::pwrite) {
        ps_.pwrite_s += us / 1e6;
        ps_.pwrite_bytes += n;
      }
    }
    return r;
  }

  protocol::NestRequest request(protocol::NestOp op, const std::string& path) {
    protocol::NestRequest req;
    req.op = op;
    req.principal = who_;
    req.protocol = proto_name(spec_.proto);
    req.path = path;
    return req;
  }

  // Read a whole file in the blocks nestd's handler for this protocol uses.
  Status read_file(const std::string& path, std::int64_t size,
                   const std::uint64_t* expect) {
    Result<storage::TransferTicket> ticket =
        level_ == Level::dispatcher
            ? timed(Call::approve_get,
                    [&] {
                      return stack_.dispatcher->approve_get(
                          request(protocol::NestOp::get, path));
                    })
            : timed(Call::approve_read,
                    [&] { return stack_.storage->approve_read(who_, path); });
    if (!ticket.ok()) return Status{ticket.error()};
    if (ticket->size != size) return Status{Errc::io_error, "size " + path};
    const std::int64_t block = spec_.proto == Proto::nfs
                                   ? protocol::kNfsBlockSize
                                   : kWireBlock;
    Hasher h;
    for (std::int64_t off = 0; off < size;) {
      const auto len = static_cast<std::size_t>(std::min(block, size - off));
      const std::span<char> dst(buf_.data(), len);
      const auto n =
          level_ == Level::dispatcher
              ? timed(Call::read_block,
                      [&] {
                        return stack_.executor->read_block(
                            proto_name(spec_.proto), *ticket, off, dst);
                      })
              : timed(Call::pread, [&] { return ticket->handle->pread(dst, off); });
      if (!n.ok()) return Status{n.error()};
      if (*n != static_cast<std::int64_t>(len))
        return Status{Errc::io_error, "short read " + path};
      if (expect != nullptr) h.update(std::span<const char>(buf_.data(), len));
      off += *n;
    }
    if (expect != nullptr && h.digest() != *expect)
      return Status{Errc::io_error, "content hash mismatch " + path};
    return {};
  }

  // Write `body` as nestd does: approve, then block writes; a STOR-style
  // write (`known_size` false) settles its charge afterwards.
  Status write_file(const std::string& path, const std::string& body,
                    bool known_size) {
    const auto size = static_cast<std::int64_t>(body.size());
    const std::int64_t declared = known_size ? size : 0;
    Result<storage::TransferTicket> ticket =
        level_ == Level::dispatcher
            ? timed(Call::approve_put,
                    [&] {
                      auto req = request(protocol::NestOp::put, path);
                      req.size = declared;
                      return stack_.dispatcher->approve_put(req);
                    })
            : timed(Call::approve_write, [&] {
                return stack_.storage->approve_write(who_, path, declared);
              });
    if (!ticket.ok()) return Status{ticket.error()};
    for (std::int64_t off = 0; off < size;) {
      const auto len =
          static_cast<std::size_t>(std::min(kWireBlock, size - off));
      const std::span<const char> src(body.data() + off, len);
      const auto n =
          level_ == Level::dispatcher
              ? timed(Call::write_block,
                      [&] {
                        return stack_.executor->write_block(
                            proto_name(spec_.proto), *ticket, off, src);
                      })
              : timed(Call::pwrite,
                      [&] { return ticket->handle->pwrite(src, off); });
      if (!n.ok()) return Status{n.error()};
      if (*n != static_cast<std::int64_t>(len))
        return Status{Errc::io_error, "short write " + path};
      off += *n;
    }
    if (known_size) return {};
    return timed(Call::charge_written, [&] {
      return stack_.storage->charge_written(who_, path, size);
    });
  }

  Status stat(const std::string& path, std::int64_t size) {
    std::int64_t got = -1;
    Status s;
    if (level_ == Level::dispatcher) {
      const auto r = timed(Call::execute, [&] {
        return StatusOf{stack_.dispatcher->execute(
            request(protocol::NestOp::stat, path))};
      });
      s = r.reply.status;
      got = r.reply.value;
    } else {
      const auto r =
          timed(Call::stat, [&] { return stack_.storage->stat(who_, path); });
      if (!r.ok()) return Status{r.error()};
      got = r->size;
    }
    if (!s.ok()) return s;
    if (got != size) return Status{Errc::io_error, "stat size " + path};
    return {};
  }

  // Adapts a dispatcher Reply to the `ok()` shape timed() inspects.
  struct StatusOf {
    nest::dispatcher::Reply reply;
    bool ok() const { return reply.status.ok(); }
    std::int64_t operator*() const { return reply.value; }
  };

  Status execute_meta(protocol::NestOp op, Call storage_call,
                      const std::string& path) {
    if (level_ == Level::dispatcher) {
      auto req = request(op, path);
      req.lot_capacity = kMetaLotBytes;
      req.lot_duration = kMetaLotSeconds * nest::kSecond;
      req.lot_id = lot_;
      const auto r = timed(Call::execute, [&] {
        return StatusOf{stack_.dispatcher->execute(req)};
      });
      if (!r.ok()) return r.reply.status;
      if (op == protocol::NestOp::lot_create)
        lot_ = static_cast<std::uint64_t>(r.reply.value);
      return {};
    }
    switch (storage_call) {
      case Call::lot_create: {
        const auto id = timed(Call::lot_create, [&] {
          return stack_.storage->lot_create(
              who_, kMetaLotBytes, kMetaLotSeconds * nest::kSecond);
        });
        if (!id.ok()) return Status{id.error()};
        lot_ = *id;
        return {};
      }
      case Call::lot_terminate:
        return timed(Call::lot_terminate, [&] {
          return stack_.storage->lot_terminate(who_, lot_);
        });
      default:
        return timed(Call::remove,
                     [&] { return stack_.storage->remove(who_, path); });
    }
  }

  Status execute(const Op& op) {
    const bool bulk = w_ == Workload::bulk_fig3;
    switch (op.kind) {
      case OpKind::read: {
        if (bulk && spec_.proto == Proto::gridftp) {
          return read_file(stor_path(op.file), kBulkBytes,
                           op.verify ? &data_.stor_hash.at(op.file) : nullptr);
        }
        if (bulk) {
          return read_file(bulk_path(op.file), kBulkBytes,
                           op.verify ? &data_.bulk_hash.at(op.file) : nullptr);
        }
        return read_file(small_path(op.file), kSmallBytes,
                         op.verify ? &data_.small_hash.at(op.file) : nullptr);
      }
      case OpKind::stat:
        if (w_ == Workload::meta_session)
          return stat(meta_path(session_, op.file), kMetaBytes);
        return stat(small_path(op.file), kSmallBytes);
      case OpKind::lot_create:
        return execute_meta(protocol::NestOp::lot_create, Call::lot_create, "");
      case OpKind::put:
        return write_file(meta_path(session_, op.file),
                          data_.meta_body.at(static_cast<std::size_t>(session_)),
                          true);
      case OpKind::get:
        return read_file(meta_path(session_, op.file), kMetaBytes,
                         &data_.meta_hash.at(static_cast<std::size_t>(session_)));
      case OpKind::unlink:
        return execute_meta(protocol::NestOp::unlink, Call::remove,
                            meta_path(session_, op.file));
      case OpKind::lot_terminate:
        return execute_meta(protocol::NestOp::lot_terminate,
                            Call::lot_terminate, "");
      case OpKind::stor:
        return write_file(stor_path(op.file), data_.stor_body.at(op.file), false);
    }
    return Status{Errc::invalid_argument, "unknown op"};
  }

  Level level_;
  Stack& stack_;
  Workload w_;
  int session_;
  SessionSpec spec_;
  storage::Principal who_;
  const DataSet& data_;
  PassStats& ps_;
  OpStream stream_;
  std::vector<char> buf_;
  std::uint64_t lot_ = 0;
  double op_total_ = 0;
  double entry_total_ = 0;
};

void merge(PassStats& into, PassStats&& from) {
  for (std::size_t c = 0; c < kCalls; ++c) {
    auto& dst = into.call_us[c];
    dst.insert(dst.end(), from.call_us[c].begin(), from.call_us[c].end());
  }
  auto merge_acc = [](auto& dst, const auto& src) {
    for (const auto& [k, acc] : src) {
      dst[k].sum += acc.sum;
      dst[k].n += acc.n;
    }
  };
  merge_acc(into.block_read_us, from.block_read_us);
  merge_acc(into.block_write_us, from.block_write_us);
  merge_acc(into.op_us, from.op_us);
  merge_acc(into.entry_us, from.entry_us);
  into.pread_s += from.pread_s;
  into.pwrite_s += from.pwrite_s;
  into.pread_bytes += from.pread_bytes;
  into.pwrite_bytes += from.pwrite_bytes;
  into.ops += from.ops;
  into.failed += from.failed;
  if (into.first_error.empty()) into.first_error = from.first_error;
}

PassStats run_pass(Level level, Stack& stack, Workload w, std::uint64_t seed,
                   const DataSet& data, int sessions, double seconds,
                   const std::vector<double>& pace_us) {
  std::vector<PassStats> per(static_cast<std::size_t>(sessions));
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int i = 0; i < sessions; ++i) {
    threads.emplace_back([&, i] {
      const auto idx = static_cast<std::size_t>(i);
      const double us = idx < pace_us.size() ? pace_us[idx] : 0;
      Replayer(level, stack, w, i, seed, data, per[idx])
          .run(deadline, std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::micro>(us)));
    });
  }
  for (auto& t : threads) t.join();
  PassStats out;
  for (auto& p : per) merge(out, std::move(p));
  return out;
}

Result<std::vector<std::string>> records_after(const std::string& journal_dir,
                                               nest::journal::Lsn after) {
  nest::journal::JournalOptions jopts;
  jopts.dir = journal_dir;
  auto j = nest::journal::Journal::open(nest::RealClock::instance(), jopts);
  if (!j.ok()) return j.error();
  std::vector<std::string> out;
  const Status s = (*j)->replay(
      [&](nest::journal::Lsn lsn, std::string_view payload) -> Status {
        if (lsn > after) out.emplace_back(payload);
        return {};
      });
  if (!s.ok()) return s.error();
  return out;
}

// append + commit from kSessions threads, cycling over `records`.
Result<std::vector<double>> commit_loop(const std::vector<std::string>& records,
                                        const std::string& dir,
                                        double seconds) {
  std::vector<double> out;
  if (records.empty()) return out;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  nest::journal::JournalOptions jopts;
  jopts.dir = dir;
  jopts.sync = nest::journal::SyncMode::always;
  auto j = nest::journal::Journal::open(nest::RealClock::instance(), jopts);
  if (!j.ok()) return j.error();
  nest::journal::Journal& journal = **j;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::vector<double>> per(kSessions);
  std::vector<Status> errors(kSessions);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      auto& samples = per[static_cast<std::size_t>(i)];
      for (std::size_t k = static_cast<std::size_t>(i); Clock::now() < deadline;
           k += kSessions) {
        auto lsn = journal.append(records[k % records.size()]);
        if (!lsn.ok()) {
          errors[static_cast<std::size_t>(i)] = Status{lsn.error()};
          return;
        }
        const auto t0 = Clock::now();
        const Status s = journal.commit(*lsn);
        samples.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
        if (!s.ok()) {
          errors[static_cast<std::size_t>(i)] = s;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : errors) {
    if (!s.ok()) return s.error();
  }
  for (auto& v : per) out.insert(out.end(), v.begin(), v.end());
  return out;
}

}  // namespace

Result<InprocResult> run_inproc(Workload w, std::uint64_t seed,
                                const DataSet& data, const std::string& root,
                                const std::string& journal_dir,
                                const std::string& commit_dir, double pass_s,
                                const std::vector<double>& pace_us) {
  InprocResult out;
  nest::journal::Lsn before = 0;
  const std::vector<double> closed_loop;
  {
    auto stack = build_stack(root, journal_dir);
    if (!stack.ok()) return stack.error();
    Stack& s = **stack;
    out.dispatcher =
        run_pass(Level::dispatcher, s, w, seed, data, kSessions, pass_s, pace_us);
    before = s.storage->journal_stats()->last_lsn;
    out.storage =
        run_pass(Level::storage, s, w, seed, data, kSessions, pass_s, pace_us);
    out.storage_closed = run_pass(Level::storage, s, w, seed, data, kSessions,
                                  pass_s / 4, closed_loop);
    out.storage_one =
        run_pass(Level::storage, s, w, seed, data, 1, pass_s / 4, closed_loop);
  }
  auto records = records_after(journal_dir, before);
  if (!records.ok()) return records.error();
  out.journal_records = static_cast<std::int64_t>(records->size());
  auto commits = commit_loop(*records, commit_dir, pass_s / 4);
  if (!commits.ok()) return commits.error();
  out.commit_us = std::move(commits.value());
  return out;
}

}  // namespace livebench

// Ablation A10 — journal commit strategy: acknowledged metadata ops/sec
// with no journal (seed behaviour, volatile) and with the durable journal
// (sync=always), whose leader/follower commit lets concurrent committers
// share one fsync.
//
// Workload: N connection threads, each looping lot_create + lot_terminate
// against one StorageManager (every iteration seals and commits two
// journal batches). The journal is the only variable — the filesystem is
// in-memory — so the delta is pure durability cost, and the fsync count
// shows how batching amortizes it: one fsync per op at 1 connection,
// far fewer at 8.
//
// Recovery row (`recover` mode, also part of the default run): the cost
// of start-up recovery. A journal with no snapshot is seeded through the
// StorageManager with 200 live lots plus 20,000 lot_create +
// lot_terminate pairs (40,200 records), then reopened 10 times; each
// time Journal::open and attach_journal into a fresh manager are timed,
// and the recovered state must equal the writer's byte for byte. The row
// reports the medians (open_ms, replay_ms).
//
// Usage: abl_journal_commit [total_ops | recover]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "journal/journal.h"
#include "storage/memfs.h"
#include "storage/storage_manager.h"

using namespace nest;

namespace {

struct ModeResult {
  double ops_per_sec = 0;
  std::uint64_t fsyncs = 0;
};

struct Mode {
  std::string name;
  bool journaled = false;
  journal::SyncMode sync = journal::SyncMode::none;
};

storage::Principal user(int t) {
  return storage::Principal{.name = "u" + std::to_string(t),
                            .groups = {},
                            .authenticated = true,
                            .protocol = "chirp"};
}

ModeResult run_mode(const Mode& mode, int conns, std::int64_t total_ops) {
  static int run_counter = 0;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("nest_abl_journal_" + std::to_string(::getpid()) + "_" +
                    std::to_string(run_counter++));
  std::filesystem::remove_all(dir);

  storage::StorageOptions sopts;
  sopts.lot_capacity = 1'000'000;
  storage::StorageManager sm(
      RealClock::instance(),
      std::make_unique<storage::MemFs>(RealClock::instance()), sopts);

  std::unique_ptr<journal::Journal> j;
  if (mode.journaled) {
    journal::JournalOptions jopts;
    jopts.dir = dir.string();
    jopts.sync = mode.sync;
    auto opened = journal::Journal::open(RealClock::instance(), jopts);
    if (!opened.ok()) {
      std::fprintf(stderr, "journal open failed: %s\n",
                   opened.error().to_string().c_str());
      std::exit(1);
    }
    j = std::move(opened.value());
    if (auto s = sm.attach_journal(*j); !s.ok()) {
      std::fprintf(stderr, "attach failed: %s\n", s.to_string().c_str());
      std::exit(1);
    }
  }

  // Each iteration = 2 acknowledged metadata mutations.
  const std::int64_t iters_per_conn = total_ops / (2 * conns);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(conns));
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&sm, c, iters_per_conn] {
      for (std::int64_t i = 0; i < iters_per_conn; ++i) {
        auto id = sm.lot_create(user(c), 1, 3600 * kSecond);
        if (!id.ok()) continue;
        (void)sm.lot_terminate(user(c), *id);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::chrono::duration<double> secs =
      std::chrono::steady_clock::now() - t0;

  ModeResult r;
  r.ops_per_sec =
      static_cast<double>(2 * iters_per_conn * conns) / secs.count();
  if (auto st = sm.journal_stats()) r.fsyncs = st->fsyncs;
  j.reset();
  std::filesystem::remove_all(dir);
  return r;
}

[[noreturn]] void die(const std::string& what, const std::string& why) {
  std::fprintf(stderr, "%s failed: %s\n", what.c_str(), why.c_str());
  std::exit(1);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Seeds the recovery journal, reopens it kRecoverRuns times, and prints
// the recover row.
void run_recover() {
  constexpr int kLiveLots = 200;
  constexpr int kChurnedLots = 20'000;
  constexpr int kRecoverRuns = 10;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("nest_abl_recover_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  journal::JournalOptions jopts;
  jopts.dir = dir.string();
  // The sync mode changes nothing on disk; skipping fsyncs keeps seeding
  // quick.
  jopts.sync = journal::SyncMode::none;
  storage::StorageOptions sopts;
  sopts.lot_capacity = 1'000'000'000;
  sopts.journal_snapshot_every = std::numeric_limits<std::uint64_t>::max();
  // A clock that never moves: nothing expires while seeding, and the
  // recovered state compares byte for byte without a rebase.
  ManualClock clock;
  const auto make_manager = [&] {
    return std::make_unique<storage::StorageManager>(
        clock, std::make_unique<storage::MemFs>(clock), sopts);
  };

  std::string written;
  {
    auto j = journal::Journal::open(clock, jopts);
    if (!j.ok()) die("journal open", j.error().to_string());
    auto sm = make_manager();
    if (auto s = sm->attach_journal(**j); !s.ok()) die("attach", s.to_string());
    for (int i = 0; i < kLiveLots + kChurnedLots; ++i) {
      auto id = sm->lot_create(user(i % 4), 1000, 3600 * kSecond);
      if (!id.ok()) die("lot_create", id.error().to_string());
      if (i < kLiveLots) continue;
      if (auto s = sm->lot_terminate(user(i % 4), *id); !s.ok())
        die("lot_terminate", s.to_string());
    }
    written = sm->serialize_meta(0);
  }
  std::uint64_t bytes = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    bytes += e.file_size();

  std::vector<double> open_ms, replay_ms;
  journal::Lsn records = 0;
  for (int run = 0; run < kRecoverRuns; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    auto j = journal::Journal::open(clock, jopts);
    open_ms.push_back(ms_since(t0));
    if (!j.ok()) die("journal reopen", j.error().to_string());
    auto sm = make_manager();
    const auto t1 = std::chrono::steady_clock::now();
    if (auto s = sm->attach_journal(**j, /*rebase_clock=*/false); !s.ok())
      die("replay", s.to_string());
    replay_ms.push_back(ms_since(t1));
    if (sm->serialize_meta(0) != written)
      die("replay", "recovered state differs from the writer's");
    records = (*j)->stats().last_lsn - (*j)->snapshot_lsn();
  }
  std::filesystem::remove_all(dir);

  std::printf("Recovery: %llu records, %llu journal bytes, no snapshot; "
              "median of %d reopens\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(bytes), kRecoverRuns);
  std::printf("  Journal::open %.2f ms, attach_journal %.2f ms\n\n",
              median(open_ms), median(replay_ms));
  std::printf("{\"bench\":\"abl_journal_commit\",\"mode\":\"recover\","
              "\"records\":%llu,\"bytes\":%llu,\"open_ms\":%.3f,"
              "\"replay_ms\":%.3f}\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(bytes), median(open_ms),
              median(replay_ms));
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t total_ops = 4000;
  if (argc > 1 && std::string(argv[1]) == "recover") {
    run_recover();
    return 0;
  }
  if (argc > 1) total_ops = std::atoll(argv[1]);

  const std::vector<Mode> modes = {
      {"none", false, journal::SyncMode::none},
      {"always", true, journal::SyncMode::always},
  };

  std::printf("Ablation A10: metadata journal commit strategy\n");
  std::printf("(%lld acknowledged lot ops per run; memfs backend, journal "
              "on local disk)\n\n",
              static_cast<long long>(total_ops));
  std::printf("  %-11s  %-6s  %12s  %10s\n", "mode", "conns", "ops/sec",
              "fsyncs");
  struct Row {
    std::string mode;
    int conns;
    ModeResult res;
  };
  std::vector<Row> rows;
  for (const Mode& mode : modes) {
    for (const int conns : {1, 8}) {
      const ModeResult res = run_mode(mode, conns, total_ops);
      rows.push_back(Row{mode.name, conns, res});
      std::printf("  %-11s  %-6d  %12.0f  %10llu\n", mode.name.c_str(),
                  conns, res.ops_per_sec,
                  static_cast<unsigned long long>(res.fsyncs));
    }
  }
  std::printf("\n");
  for (const Row& row : rows) {
    std::printf("{\"bench\":\"abl_journal_commit\",\"mode\":\"%s\","
                "\"conns\":%d,\"ops_per_sec\":%.0f,\"fsyncs\":%llu}\n",
                row.mode.c_str(), row.conns, row.res.ops_per_sec,
                static_cast<unsigned long long>(row.res.fsyncs));
  }
  std::printf("\n");
  run_recover();
  return 0;
}

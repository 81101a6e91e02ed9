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
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
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

}  // namespace

int main(int argc, char** argv) {
  std::int64_t total_ops = 4000;
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
  return 0;
}

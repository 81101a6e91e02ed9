#include "common/lockrank.h"

#include <execinfo.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace nest::lockrank {

namespace {

constexpr int kMaxHeld = 32;    // deepest legal chain is far shorter
constexpr int kMaxFrames = 24;  // acquire-site backtrace depth

struct Held {
  Rank rank;
  const char* what;
  void* frames[kMaxFrames];
  int frame_count;
};

struct ThreadStack {
  Held held[kMaxHeld];
  int n = 0;
};

ThreadStack& stack() {
  thread_local ThreadStack s;
  return s;
}

// -1 = resolve from env/build, 0 = off, 1 = on.
std::atomic<int> g_state{-1};

int resolve_default() {
  if (const char* env = std::getenv("NEST_LOCKRANK")) {
    return (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0) ? 0
                                                                        : 1;
  }
#ifdef NDEBUG
  return 0;
#else
  return 1;
#endif
}

void print_backtrace(void* const* frames, int n) {
  if (n <= 0) {
    // nest-lint: allow(syscalls): signal-safe abort diagnostics to stderr.
    (void)!::write(STDERR_FILENO, "    (no backtrace)\n", 19);
    return;
  }
  ::backtrace_symbols_fd(frames, n, STDERR_FILENO);
}

[[noreturn]] void violation(const char* kind, Rank acquiring,
                            const char* what) {
  // stderr only: this runs on arbitrary threads holding arbitrary locks,
  // so it must not re-enter the logger (rank `logger` may be below us).
  std::fprintf(stderr,
               "\n=== lock-rank violation: %s ===\n"
               "thread attempted to acquire '%s' (rank %d %s) while "
               "holding:\n",
               kind, what, static_cast<int>(acquiring), rank_name(acquiring));
  ThreadStack& s = stack();
  for (int i = s.n - 1; i >= 0; --i) {
    std::fprintf(stderr, "  [%d] '%s' (rank %d %s), acquired at:\n", i,
                 s.held[i].what, static_cast<int>(s.held[i].rank),
                 rank_name(s.held[i].rank));
    print_backtrace(s.held[i].frames, s.held[i].frame_count);
  }
  std::fprintf(stderr, "acquisition attempted at:\n");
  void* here[kMaxFrames];
  const int n = ::backtrace(here, kMaxFrames);
  print_backtrace(here, n);
  std::fprintf(stderr,
               "canonical order: common/lockrank.h / "
               "docs/static-analysis.md\n");
  std::fflush(stderr);
  std::abort();
}

}  // namespace

const char* rank_name(Rank r) noexcept {
  switch (r) {
    case Rank::server_conn: return "server_conn";
    case Rank::jbos_conn: return "jbos_conn";
    case Rank::kangaroo_spool: return "kangaroo_spool";
    case Rank::nfs_handles: return "nfs_handles";
    case Rank::hsm_worker: return "hsm_worker";
    case Rank::executor_throttle: return "executor_throttle";
    case Rank::dispatcher_load: return "dispatcher_load";
    case Rank::transfer_admission: return "transfer_admission";
    case Rank::discovery_collector: return "discovery_collector";
    case Rank::cluster_membership: return "cluster_membership";
    case Rank::cluster_selector: return "cluster_selector";
    case Rank::hsm_state: return "hsm_state";
    case Rank::storage_meta: return "storage_meta";
    case Rank::storage_extent: return "storage_extent";
    case Rank::storage_file: return "storage_file";
    case Rank::cluster_ship: return "cluster_ship";
    case Rank::journal: return "journal";
    case Rank::transfer_core: return "transfer_core";
    case Rank::obs_load: return "obs_load";
    case Rank::obs_rings: return "obs_rings";
    case Rank::obs_live: return "obs_live";
    case Rank::fault_registry: return "fault_registry";
    case Rank::fault_point: return "fault_point";
    case Rank::logger: return "logger";
  }
  return "?";
}

bool enabled() noexcept {
  int v = g_state.load(std::memory_order_relaxed);
  if (v < 0) {
    v = resolve_default();
    g_state.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void set_enabled(bool on) noexcept {
  g_state.store(on ? 1 : 0, std::memory_order_relaxed);
}

void check_acquire(Rank r, const char* what) noexcept {
  if (!enabled()) return;
  ThreadStack& s = stack();
  if (s.n > 0) {
    const Rank top = s.held[s.n - 1].rank;
    if (r == top) violation("same-rank re-entry", r, what);
    if (r < top) violation("rank inversion", r, what);
    // Ranks below the top but not held would already have tripped when
    // the deeper lock was acquired; comparing against the top suffices
    // because the held stack is strictly increasing by construction.
  }
  if (s.n < kMaxHeld) {
    Held& h = s.held[s.n];
    h.rank = r;
    h.what = what;
    h.frame_count = ::backtrace(h.frames, kMaxFrames);
    ++s.n;
  }
}

void note_released(Rank r) noexcept {
  if (!enabled()) return;
  ThreadStack& s = stack();
  // Almost always LIFO; scan from the innermost for the unlock-out-of-
  // order cases (std::unique_lock-style juggling, enable/disable races).
  for (int i = s.n - 1; i >= 0; --i) {
    if (s.held[i].rank == r) {
      for (int j = i; j < s.n - 1; ++j) s.held[j] = s.held[j + 1];
      --s.n;
      return;
    }
  }
}

int held_count() noexcept { return stack().n; }

}  // namespace nest::lockrank

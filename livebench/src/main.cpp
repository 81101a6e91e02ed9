// nestbench: drives a live nestd over Chirp, HTTP, GridFTP and NFS and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) of one workload as the last line of stdout.
//
//   nestbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --nestd <path> --run-dir <dir> [--revision <text>]
//
// run.py builds both binaries and calls this; see livebench/README.md.
#include <sched.h>
#include <sys/mount.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dataset.h"
#include "inproc.h"
#include "metrics.h"
#include "opstream.h"
#include "proc.h"
#include "wire.h"

using namespace livebench;
using nest::Result;
using nest::Status;

namespace {

// Every nestd lifetime in conn_churn serves exactly this many connections:
// far below the ~32.7k at which a thread-per-connection server that never
// reaps exited threads aborts, so the leak shows as memory, not a crash.
constexpr std::int64_t kChurnConnsPerLifetime = 8192;
constexpr int kSetupsPerSide = 10;    // start-ups timed before and after
constexpr double kWarmupS = 2.0;      // ops before the window are not timed
constexpr int kWatchdogS = 170;       // whole run, build excluded

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string nestd;
  std::string run_dir;
  std::string revision = "unknown";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::stoull(v);
    else if (k == "--seconds") a->seconds = std::stod(v);
    else if (k == "--trace") a->trace = std::stoi(v);
    else if (k == "--nestd") a->nestd = v;
    else if (k == "--run-dir") a->run_dir = v;
    else if (k == "--revision") a->revision = v;
    else return false;
  }
  return !a->workload.empty() && !a->nestd.empty() && !a->run_dir.empty() &&
         a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

// Mounts a private tmpfs at `dir` inside a new mount namespace: RAM-backed
// root and journal that vanish with this process and its nestd children.
// Returns the mount description, or why it fell back to the disk.
std::string mount_private_tmpfs(const std::string& dir) {
  std::filesystem::create_directories(dir);
  if (::unshare(CLONE_NEWNS) != 0)
    return std::string("none (unshare: ") + std::strerror(errno) + ")";
  if (::mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0)
    return std::string("none (private /: ") + std::strerror(errno) + ")";
  if (::mount("tmpfs", dir.c_str(), "tmpfs", 0, "size=1g,mode=0700") != 0)
    return std::string("none (mount: ") + std::strerror(errno) + ")";
  std::ifstream mounts("/proc/self/mounts");
  std::string line;
  while (std::getline(mounts, line)) {
    if (line.find(" " + dir + " ") != std::string::npos) return line;
  }
  return "tmpfs " + dir;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

// --- One live measurement: nestd lifetimes driven by the wire pass ------

// A stretch of the timed window: one second of a long-lived nestd, or one
// whole conn_churn lifetime. End-to-end metrics are medians over slices,
// so a burst of outside load moves one slice, not the run.
struct Slice {
  double seconds = 0;
  double cpu_s = 0;  // nestd user + system CPU inside the slice
  std::int64_t ops = 0, ok_ops = 0, bytes = 0;
  std::vector<double> latency_us;
};

struct Lifetime {
  ProcSample before, after;
  std::string stats_before, stats_after;
  std::int64_t ops_total = 0;
  std::int64_t connects = 0;
};

// Harness-level checks (start-up, /stats, lot list, clean stop): each one
// counts as an attempted op, and a failed one as a failed op.
struct Checks {
  std::int64_t made = 0;
  std::vector<std::string> failures;
  void check(const Status& s, const std::string& what) {
    ++made;
    if (!s.ok()) failures.push_back(what + ": " + s.to_string());
  }
};

struct LiveRun {
  WireStats wire;
  std::vector<Lifetime> lifetimes;
  std::vector<Slice> slices;
  Checks checks;
};

struct Ctx {
  Args args;
  Workload workload = Workload::small_read;
  std::string mnt, root, journal, config, log;
  std::string setup_config;  // the untouched copy setup_s is timed on
  DataSet data;
  std::vector<std::uint64_t> seeded_lots;
};

void merge_wire(WireStats& into, WireStats&& from) {
  if (into.sessions.empty()) {
    into = std::move(from);
    return;
  }
  for (std::size_t i = 0; i < into.sessions.size(); ++i) {
    auto& a = into.sessions[i];
    auto& b = from.sessions[i];
    a.samples.insert(a.samples.end(), b.samples.begin(), b.samples.end());
    a.spans.insert(a.spans.end(), b.spans.begin(), b.spans.end());
    a.ops += b.ops;
    a.failed += b.failed;
    a.bytes += b.bytes;
    a.ops_total += b.ops_total;
    a.connects += b.connects;
    if (a.first_error.empty()) a.first_error = b.first_error;
  }
  into.elapsed_s += from.elapsed_s;
}

// Spawns nestd on `config` and times it until the first request succeeds.
Result<Nestd> start_nestd(const Ctx& ctx, const std::string& config,
                          double* setup_s) {
  const auto t0 = SteadyClock::now();
  auto proc = Nestd::spawn(ctx.args.nestd, config, ctx.log, 60'000);
  if (!proc.ok()) return proc.error();
  auto body = http_fetch(proc->ports().http, small_path(0));
  if (!body.ok()) return body.error();
  if (hash_bytes(*body) != ctx.data.small_hash[0])
    return nest::Error{nest::Errc::io_error, "first reply has wrong content"};
  *setup_s =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();
  return proc;
}

// Drives the workload for `seconds`. conn_churn spends them as wall time:
// lifetimes of kChurnConnsPerLifetime connections, each on a fresh nestd,
// until the time is up; a lifetime cut short by the deadline is dropped
// from the slices and lifetimes (its ops still count as attempted).
LiveRun run_live(const Ctx& ctx, Nestd first, double seconds, bool traced) {
  LiveRun run;
  std::vector<OpStream> streams;
  for (int i = 0; i < kSessions; ++i)
    streams.emplace_back(ctx.workload, ctx.args.seed, i);
  const bool churn = ctx.workload == Workload::conn_churn;
  const auto as_duration = [](double s) {
    return std::chrono::duration_cast<SteadyClock::duration>(
        std::chrono::duration<double>(s));
  };
  const auto deadline = SteadyClock::now() + as_duration(seconds);
  std::vector<Slice> partial_slices;
  std::vector<Lifetime> partial_lifetimes;
  Nestd proc = std::move(first);
  for (int lifetime = 0;; ++lifetime) {
    if (lifetime > 0) {
      if (SteadyClock::now() >= deadline) break;
      double ignored = 0;
      auto next = start_nestd(ctx, ctx.config, &ignored);
      run.checks.check(next.ok() ? Status{} : Status{next.error()}, "restart nestd");
      if (!next.ok()) break;
      proc = std::move(next.value());
    }
    Lifetime lt;
    auto s0 = http_fetch(proc.ports().http, "/stats");
    run.checks.check(s0.ok() ? Status{} : Status{s0.error()}, "/stats before");
    if (s0.ok()) lt.stats_before = *s0;
    auto p0 = sample_proc(proc.pid());
    if (p0.ok()) lt.before = *p0;

    WirePlan plan;
    plan.workload = ctx.workload;
    plan.ports = proc.ports();
    plan.data = &ctx.data;
    plan.streams = &streams;
    plan.traced = traced;
    // A churn lifetime is its own warm-up: every connection counts.
    plan.start = SteadyClock::now() + as_duration(churn ? 0 : kWarmupS);
    plan.end = churn ? deadline : plan.start + as_duration(seconds);
    const std::int64_t budget = kChurnConnsPerLifetime / kSessions;
    plan.max_ops_per_session = churn ? budget : 0;

    // A churn lifetime is one slice; otherwise the window is cut into
    // one-second slices. nestd's CPU is sampled at every slice boundary,
    // off the load threads.
    const int nslices =
        churn ? 1 : std::max(1, static_cast<int>(std::lround(seconds)));
    const double slice_s = seconds / nslices;
    std::vector<double> cpu_at(static_cast<std::size_t>(nslices) + 1, 0);
    std::thread monitor([&] {
      for (int k = 0; k < (churn ? 1 : nslices + 1); ++k) {
        std::this_thread::sleep_until(
            plan.start + std::chrono::duration_cast<SteadyClock::duration>(
                             std::chrono::duration<double>(k * slice_s)));
        if (auto p = sample_proc(proc.pid()); p.ok())
          cpu_at[static_cast<std::size_t>(k)] = p->cpu_s;
      }
    });
    WireStats wire = run_wire(plan);
    monitor.join();
    auto p1 = sample_proc(proc.pid());
    if (p1.ok()) {
      lt.after = *p1;
      if (churn) cpu_at[1] = p1->cpu_s;
    }
    std::vector<Slice> slices(static_cast<std::size_t>(nslices));
    for (int k = 0; k < nslices; ++k) {
      Slice& sl = slices[static_cast<std::size_t>(k)];
      sl.seconds = churn ? wire.elapsed_s : slice_s;
      sl.cpu_s = cpu_at[static_cast<std::size_t>(k) + 1] -
                 cpu_at[static_cast<std::size_t>(k)];
    }
    for (const auto& st : wire.sessions) {
      for (const OpSample& op : st.samples) {
        const auto k = churn ? 0 : static_cast<int>(op.done_s / slice_s);
        if (k < 0 || k >= nslices) continue;  // finished after the window
        Slice& sl = slices[static_cast<std::size_t>(k)];
        ++sl.ops;
        sl.ok_ops += op.ok ? 1 : 0;
        sl.bytes += op.bytes;
        sl.latency_us.push_back(op.latency_us);
      }
    }
    auto s1 = http_fetch(proc.ports().http, "/stats");
    run.checks.check(s1.ok() ? Status{} : Status{s1.error()}, "/stats after");
    if (s1.ok()) lt.stats_after = *s1;
    bool full = true;
    for (const auto& s : wire.sessions) {
      lt.ops_total += s.ops_total;
      lt.connects += s.connects;
      if (churn && s.ops_total < budget) full = false;
    }
    if (ctx.workload == Workload::meta_session) {
      // Every loop terminated its own lot: exactly the seeded ones remain.
      auto ids = list_lot_ids(proc.ports().chirp);
      run.checks.check(!ids.ok() ? Status{ids.error()}
                       : *ids == ctx.seeded_lots
                           ? Status{}
                           : Status{nest::Errc::internal,
                                    std::to_string(ids->size()) + " lots live, " +
                                        std::to_string(ctx.seeded_lots.size()) +
                                        " seeded"},
                       "superuser lot list");
    }
    // One clean stop is checked per run; later churn lifetimes are killed,
    // so the window goes to connections rather than to shutdowns.
    run.checks.check(lifetime == 0 ? proc.stop() : proc.kill(), "nestd stop");
    merge_wire(run.wire, std::move(wire));
    auto& keep_slices = full ? run.slices : partial_slices;
    for (auto& sl : slices) keep_slices.push_back(std::move(sl));
    (full ? run.lifetimes : partial_lifetimes).push_back(std::move(lt));
    if (!churn) break;
  }
  if (run.slices.empty()) {  // nothing completed a whole lifetime
    run.slices = std::move(partial_slices);
    run.lifetimes = std::move(partial_lifetimes);
  }
  return run;
}

// --- Reporting ---------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Summary {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
};

void add_checks(Summary& s, const Checks& c) {
  s.attempted += c.made;
  s.failed += static_cast<std::int64_t>(c.failures.size());
  s.errors.insert(s.errors.end(), c.failures.begin(), c.failures.end());
}

Summary summarize(const LiveRun& run) {
  Summary s;
  for (const auto& st : run.wire.sessions) {
    s.attempted += st.ops;
    s.failed += st.failed;
    if (!st.first_error.empty())
      s.errors.push_back(std::string(proto_name(st.proto)) + ": " +
                         st.first_error);
  }
  add_checks(s, run.checks);
  return s;
}

std::size_t latency_samples(const WireStats& w) {
  std::size_t n = 0;
  for (const auto& s : w.sessions) n += s.samples.size();
  return n;
}

// Successful ops per second, median over the run's slices.
double ops_per_s(const LiveRun& run) {
  std::vector<double> rate;
  for (const Slice& sl : run.slices)
    rate.push_back(ratio(static_cast<double>(sl.ok_ops), sl.seconds));
  return median(rate);
}

std::vector<Metric> end_to_end(const LiveRun& run,
                               const std::vector<double>& setups,
                               std::vector<std::string>* problems) {
  std::int64_t ops = 0, failed = 0;
  for (const auto& s : run.wire.sessions) {
    ops += s.ops;
    failed += s.failed;
  }
  // Latency percentiles pool every op timed in the window: a workload
  // whose op classes differ widely in size (bulk_fig3's NFS reads) keeps
  // its p99 inside one class only with the whole window's samples.
  std::vector<double> mbps, cpu_per_op, latency;
  for (const Slice& sl : run.slices) {
    mbps.push_back(ratio(static_cast<double>(sl.bytes) / 1e6, sl.seconds));
    cpu_per_op.push_back(ratio(sl.cpu_s * 1e6, static_cast<double>(sl.ops)));
    latency.insert(latency.end(), sl.latency_us.begin(), sl.latency_us.end());
  }
  std::sort(latency.begin(), latency.end());
  const auto p50 = percentile(latency, 50);
  const auto p99 = percentile(latency, 99);
  if (!p99) {
    problems->push_back("p99 would leave fewer than " + std::to_string(kMinTail) +
                        " samples beyond it: " + std::to_string(latency.size()) +
                        " timed ops");
  }
  std::vector<double> hwm;
  for (const auto& lt : run.lifetimes)
    hwm.push_back(static_cast<double>(lt.after.hwm_kb) / 1024.0);
  return {
      {"ops_per_s", ops_per_s(run), "ops/s"},
      {"MB_per_s", median(mbps), "MB/s"},
      {"latency_p50_us", p50 ? p50->value : 0, "us"},
      {"latency_p99_us", p99 ? p99->value : 0, "us"},
      {"error_ratio", ratio(static_cast<double>(failed), static_cast<double>(ops)),
       "ratio"},
      {"setup_s", median(setups), "s"},
      {"server_peak_rss_mb", median(hwm), "MB"},
      {"server_cpu_us_per_op", median(cpu_per_op),
       "us/op"},
  };
}

MeanAcc block_class(const PassStats& ps, std::int64_t bytes) {
  MeanAcc out;
  for (const auto* m : {&ps.block_read_us, &ps.block_write_us}) {
    const auto it = m->find(bytes);
    if (it == m->end()) continue;
    out.sum += it->second.sum;
    out.n += it->second.n;
  }
  return out;
}

std::vector<double> sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

double p(const std::vector<double>& unsorted, double pct) {
  const auto s = sorted(unsorted);
  return percentile_or_zero(s, pct);
}

std::vector<Metric> per_layer(const LiveRun& untraced, const LiveRun& traced,
                              const InprocResult& in) {
  std::vector<Metric> m;
  // server: /proc before and after each nestd lifetime.
  std::vector<double> rss_per_conn, maps_per_conn;
  for (const auto& lt : untraced.lifetimes) {
    const double conns = std::max<double>(1, static_cast<double>(lt.connects));
    rss_per_conn.push_back(
        static_cast<double>(lt.after.rss_kb - lt.before.rss_kb) / conns);
    maps_per_conn.push_back(
        static_cast<double>(lt.after.maps - lt.before.maps) / conns);
  }
  m.push_back({"server.rss_kb_per_conn", median(rss_per_conn), "kB/conn"});
  m.push_back({"server.maps_per_conn", median(maps_per_conn), "maps/conn"});
  m.push_back({"server.threads_end",
               untraced.lifetimes.empty()
                   ? 0
                   : static_cast<double>(untraced.lifetimes.back().after.threads),
               "count"});

  // net + protocol: the traced wire pass.
  std::vector<double> connect_us;
  std::map<int, std::vector<double>> proto_lat;
  std::map<int, std::int64_t> proto_bytes;
  std::map<int, MeanAcc> wire_ops;
  for (const auto& s : traced.wire.sessions) {
    proto_bytes[static_cast<int>(s.proto)] += s.bytes;
    for (const auto& span : s.spans) {
      if (span.kind == SpanRec::connect) {
        connect_us.push_back(span.us());
      } else {
        proto_lat[static_cast<int>(s.proto)].push_back(span.us());
        wire_ops[op_key(s.proto, static_cast<OpKind>(span.name))].add(span.us());
      }
    }
  }
  m.push_back({"net.connect_us.p50", p(connect_us, 50), "us"});
  m.push_back({"net.connect_us.p99", p(connect_us, 99), "us"});
  for (const Proto pr : {Proto::chirp, Proto::http, Proto::nfs, Proto::gridftp}) {
    const std::string base = std::string("protocol.") + proto_name(pr);
    m.push_back({base + ".latency_us.p50", p(proto_lat[static_cast<int>(pr)], 50),
                 "us"});
    m.push_back({base + ".MB_per_s",
                 ratio(static_cast<double>(proto_bytes[static_cast<int>(pr)]) / 1e6,
                       traced.wire.elapsed_s),
                 "MB/s"});
  }
  m.push_back({"protocol_net.self_us",
               weighted_self(wire_ops, in.dispatcher.op_us, wire_ops), "us"});

  // dispatcher: pass 2, self time against pass 3's storage calls.
  const auto call = [&](const PassStats& ps, Call c) {
    return p(ps.call_us[static_cast<std::size_t>(c)], 50);
  };
  m.push_back({"dispatcher.execute_us.p50", call(in.dispatcher, Call::execute), "us"});
  m.push_back({"dispatcher.approve_get_us.p50",
               call(in.dispatcher, Call::approve_get), "us"});
  m.push_back({"dispatcher.approve_put_us.p50",
               call(in.dispatcher, Call::approve_put), "us"});
  m.push_back({"dispatcher.self_us",
               weighted_self(in.dispatcher.entry_us, in.storage.entry_us,
                             in.dispatcher.entry_us),
               "us"});

  // storage: pass 3.
  for (const Call c : {Call::lot_create, Call::lot_terminate, Call::stat,
                       Call::remove, Call::approve_read, Call::approve_write}) {
    m.push_back({std::string(call_name(c)) + "_us.p50", call(in.storage, c), "us"});
  }
  const auto storage_calls = [](const PassStats& ps) {
    std::vector<double> all;
    for (std::size_t c = 0; c < kCalls; ++c) {
      if (!is_storage_call(static_cast<Call>(c))) continue;
      all.insert(all.end(), ps.call_us[c].begin(), ps.call_us[c].end());
    }
    return all;
  };
  m.push_back({"storage.contention_x",
               ratio(p(storage_calls(in.storage_closed), 50),
                     p(storage_calls(in.storage_one), 50)),
               "ratio"});
  m.push_back({"storage.pread_MB_per_s",
               ratio(static_cast<double>(in.storage.pread_bytes) / 1e6,
                     in.storage.pread_s),
               "MB/s"});
  m.push_back({"storage.pwrite_MB_per_s",
               ratio(static_cast<double>(in.storage.pwrite_bytes) / 1e6,
                     in.storage.pwrite_s),
               "MB/s"});

  // journal: the commit loop, then /stats deltas of the untraced run.
  m.push_back({"journal.commit_us.p50", p(in.commit_us, 50), "us"});
  m.push_back({"journal.commit_us.p99", p(in.commit_us, 99), "us"});
  double appends = 0, commits = 0, fsyncs = 0, hold_blocks = 0, ops_total = 0;
  std::map<double, std::int64_t> fsync_after, fsync_before, hold_after,
      hold_before;
  for (const auto& lt : untraced.lifetimes) {
    appends += stats_number(lt.stats_after, "journal", "appends") -
               stats_number(lt.stats_before, "journal", "appends");
    commits += stats_number(lt.stats_after, "journal", "commits") -
               stats_number(lt.stats_before, "journal", "commits");
    fsyncs += stats_number(lt.stats_after, "journal", "fsyncs") -
              stats_number(lt.stats_before, "journal", "fsyncs");
    hold_blocks += stats_number(lt.stats_after, "sched_hold", "count") -
                   stats_number(lt.stats_before, "sched_hold", "count");
    ops_total += static_cast<double>(lt.ops_total);
    for (const auto& [k, v] : stats_buckets(lt.stats_after, "journal_fsync_wait"))
      fsync_after[k] += v;
    for (const auto& [k, v] : stats_buckets(lt.stats_before, "journal_fsync_wait"))
      fsync_before[k] += v;
    for (const auto& [k, v] : stats_buckets(lt.stats_after, "sched_hold"))
      hold_after[k] += v;
    for (const auto& [k, v] : stats_buckets(lt.stats_before, "sched_hold"))
      hold_before[k] += v;
  }
  m.push_back({"journal.fsyncs_per_commit", ratio(fsyncs, commits), "fsyncs/commit"});
  m.push_back({"journal.records_per_op", ratio(appends, ops_total), "records/op"});
  m.push_back({"journal.fsync_wait_us.p50",
               bucket_percentile(fsync_after, fsync_before, 50), "us"});
  m.push_back({"journal.fsync_wait_us.p99",
               bucket_percentile(fsync_after, fsync_before, 99), "us"});

  // transfer: block self time (pass 2 minus pass 3), /stats sched_hold.
  m.push_back({"transfer.request_self_us",
               self_time(block_class(in.dispatcher, 4096).mean(),
                         block_class(in.storage, 4096).mean()),
               "us"});
  m.push_back({"transfer.block_self_us",
               self_time(block_class(in.dispatcher, 65536).mean(),
                         block_class(in.storage, 65536).mean()),
               "us"});
  m.push_back({"transfer.sched_hold_us.p99",
               bucket_percentile(hold_after, hold_before, 99), "us"});
  m.push_back({"transfer.blocks_per_op", ratio(hold_blocks, ops_total), "blocks/op"});

  m.push_back({"trace.overhead_pct",
               overhead_pct(ops_per_s(untraced), ops_per_s(traced)), "%"});
  return m;
}

void print_metrics_line(const std::vector<Metric>& metrics) {
  for (const auto& mt : metrics) {
    std::printf("  %-34s %16.6f %s\n", mt.name.c_str(), mt.value, mt.unit.c_str());
  }
}

void print_result(bool correct, const Summary& s,
                  const std::vector<Metric>& metrics,
                  const std::vector<std::string>& omit) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << std::max<std::int64_t>(1, s.attempted)
     << ", \"failed\": " << s.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& mt : metrics) {
    if (std::find(omit.begin(), omit.end(), mt.name) != omit.end()) continue;
    if (!first) os << ", ";
    first = false;
    os << "\"" << mt.name << "\": {\"value\": " << mt.value << ", \"unit\": \""
       << mt.unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

std::string stamp(const Ctx& ctx, const std::string& mount) {
  utsname u{};
  ::uname(&u);
  std::ostringstream os;
  os << "{\"stamp\": {\"workload\": \"" << workload_name(ctx.workload)
     << "\", \"seed\": " << ctx.args.seed << ", \"seconds\": " << ctx.args.seconds
     << ", \"trace\": " << ctx.args.trace
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"kernel\": \"" << json_escape(std::string(u.sysname) + " " + u.release)
     << "\", \"build_type\": \"" << NESTBENCH_BUILD_TYPE << "\", \"tmpfs\": \""
     << json_escape(mount) << "\", \"revision\": \"" << json_escape(ctx.args.revision)
     << "\"}}";
  return os.str();
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "nestbench: %s\n", why.c_str());
  kill_all_spawned();
  std::exit(2);
}

// Times `n` start-ups on the untouched copy of the seeded root and
// journal; each process is killed once timed.
void time_setups(const Ctx& ctx, int n, std::vector<double>* setups,
                 Checks* checks) {
  for (int i = 0; i < n; ++i) {
    double s = 0;
    auto proc = start_nestd(ctx, ctx.setup_config, &s);
    if (!proc.ok()) die("nestd start-up: " + proc.error().to_string());
    setups->push_back(s);
    checks->check(proc->kill(), "nestd kill after start-up");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Ctx ctx;
  if (!parse_args(argc, argv, &ctx.args)) {
    std::fprintf(stderr,
                 "usage: nestbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --nestd <path> --run-dir <dir> "
                 "[--revision <text>]\n");
    return 2;
  }
  const auto w = parse_workload(ctx.args.workload);
  if (!w) die("unknown workload " + ctx.args.workload);
  ctx.workload = *w;

  // Before any thread exists: a private mount namespace for the tmpfs.
  ctx.mnt = std::filesystem::absolute(ctx.args.run_dir + "/mnt").string();
  const std::string mount = mount_private_tmpfs(ctx.mnt);

  // Watchdog: whatever hangs, the nestd groups are killed and reaped and
  // the run exits non-zero inside the time the caller allows.
  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock lock(wd_mu);
    if (!wd_cv.wait_for(lock, std::chrono::seconds(kWatchdogS),
                        [&] { return done; })) {
      std::fprintf(stderr, "nestbench: watchdog expired; killing nestd\n");
      kill_all_spawned();
      std::_Exit(3);
    }
  });
  const auto finish = [&](int code) {
    {
      std::lock_guard lock(wd_mu);
      done = true;
    }
    wd_cv.notify_all();
    watchdog.join();
    kill_all_spawned();
    return code;
  };

  const std::string dir = ctx.mnt + "/" + ctx.args.workload;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ctx.root = dir + "/root";
  ctx.journal = dir + "/journal";
  ctx.config = dir + "/nestd.conf";
  ctx.log = dir + "/nestd.log";
  std::filesystem::create_directories(ctx.root);
  std::printf("%s\n", stamp(ctx, mount).c_str());

  const auto prep0 = SteadyClock::now();
  ctx.data = DataSet::make(ctx.args.seed, ctx.workload);
  auto lots = seed_storage(ctx.root, ctx.journal, ctx.args.seed);
  if (!lots.ok()) die("seeding: " + lots.error().to_string());
  std::printf("prepared data set and journal in %.3f s\n",
              std::chrono::duration<double>(SteadyClock::now() - prep0).count());
  ctx.seeded_lots = std::move(lots.value());
  std::sort(ctx.seeded_lots.begin(), ctx.seeded_lots.end());

  // setup_s is timed on a copy of the seeded root and journal, which the
  // run does not write to, so start-ups after the window recover exactly
  // what the ones before it did; timing on both sides spreads the samples
  // over the run's host conditions instead of its first half-second.
  const std::string setup_dir = dir + "/setup";
  for (const auto& [from, to] : {std::pair{ctx.root, setup_dir + "/root"},
                                 std::pair{ctx.journal, setup_dir + "/journal"}}) {
    std::filesystem::create_directories(to);
    std::filesystem::copy(from, to, std::filesystem::copy_options::recursive, ec);
    if (ec) die("copying " + from + ": " + ec.message());
  }
  ctx.setup_config = setup_dir + "/nestd.conf";
  {
    std::ofstream cfg(ctx.config);
    cfg << nestd_config(ctx.root, ctx.journal);
    std::ofstream setup_cfg(ctx.setup_config);
    setup_cfg << nestd_config(setup_dir + "/root", setup_dir + "/journal");
  }

  std::vector<double> setups;
  Checks setup_checks;
  time_setups(ctx, kSetupsPerSide, &setups, &setup_checks);
  double served_setup_s = 0;  // not a sample: it starts on the live root
  auto live = start_nestd(ctx, ctx.config, &served_setup_s);
  if (!live.ok()) die("nestd start-up: " + live.error().to_string());

  // A traced run measures for about `seconds` too: a third on each wire
  // pass and a third in process (see run_inproc), so it costs no more
  // time than an untraced one.
  const double wire_s = ctx.args.trace == 0 ? ctx.args.seconds : ctx.args.seconds / 3;
  LiveRun untraced = run_live(ctx, std::move(live.value()), wire_s, false);
  time_setups(ctx, kSetupsPerSide, &setups, &setup_checks);
  std::printf("setup_s samples:");
  for (const double s : setups) std::printf(" %.6f", s);
  std::printf("\n");
  Summary sum = summarize(untraced);
  add_checks(sum, setup_checks);
  std::vector<std::string> problems;
  std::vector<Metric> e2e = end_to_end(untraced, setups, &problems);
  if (ctx.args.trace == 1) problems.clear();  // end-to-end is not reported

  std::printf("workload %s seed %llu: %lld ops attempted, %lld failed\n",
              ctx.args.workload.c_str(),
              static_cast<unsigned long long>(ctx.args.seed),
              static_cast<long long>(sum.attempted),
              static_cast<long long>(sum.failed));
  std::printf("end-to-end (%zu latency samples, %zu nestd lifetimes, %zu "
              "slices; rates are medians over slices):\n",
              latency_samples(untraced.wire), untraced.lifetimes.size(),
              untraced.slices.size());
  for (const auto& st : untraced.wire.sessions)
    std::printf("  session %s ops/s %.0f\n", proto_name(st.proto),
                static_cast<double>(st.samples.size()) / std::max(1e-9, wire_s));
  std::printf("  ops_per_s by slice:");
  for (const Slice& sl : untraced.slices)
    std::printf(" %.0f", ratio(static_cast<double>(sl.ok_ops), sl.seconds));
  std::printf("\n");
  print_metrics_line(e2e);

  std::vector<Metric> result = e2e;
  if (ctx.args.trace == 1) {
    double s = 0;
    auto proc = start_nestd(ctx, ctx.config, &s);
    if (!proc.ok()) die("nestd start-up: " + proc.error().to_string());
    LiveRun traced = run_live(ctx, std::move(proc.value()), wire_s, true);
    const Summary tsum = summarize(traced);
    sum.attempted += tsum.attempted;
    sum.failed += tsum.failed;
    sum.errors.insert(sum.errors.end(), tsum.errors.begin(), tsum.errors.end());
    // Passes 2 and 3 issue each session's ops at its traced wire rate.
    std::vector<double> pace_us;
    for (const auto& st : traced.wire.sessions)
      pace_us.push_back(ratio(traced.wire.elapsed_s * 1e6,
                              static_cast<double>(st.ops)));
    auto in = run_inproc(ctx.workload, ctx.args.seed, ctx.data, ctx.root,
                         ctx.journal, dir + "/commit-loop",
                         std::max(0.5, ctx.args.seconds / 8), pace_us);
    if (!in.ok()) die("in-process passes: " + in.error().to_string());
    for (const PassStats* ps : {&in->dispatcher, &in->storage,
                                &in->storage_closed, &in->storage_one}) {
      sum.attempted += ps->ops;
      sum.failed += ps->failed;
      if (!ps->first_error.empty()) sum.errors.push_back(ps->first_error);
    }
    std::printf("in-process: pass 2 %lld ops, pass 3 %lld ops (closed loops: "
                "%lld at %d threads, %lld at one), %lld journal records, %zu "
                "commits\n",
                static_cast<long long>(in->dispatcher.ops),
                static_cast<long long>(in->storage.ops),
                static_cast<long long>(in->storage_closed.ops), kSessions,
                static_cast<long long>(in->storage_one.ops),
                static_cast<long long>(in->journal_records), in->commit_us.size());
    for (std::size_t c = 0; c < kCalls; ++c) {
      for (const PassStats* ps : {&in->dispatcher, &in->storage}) {
        const auto& v = ps->call_us[c];
        if (v.empty()) continue;
        std::printf("  span %-28s n=%-8zu mean=%.3fus p50=%.3fus\n",
                    call_name(static_cast<Call>(c)), v.size(), mean(v), p(v, 50));
      }
    }
    result = per_layer(untraced, traced, *in);
    std::printf("per-layer:\n");
    print_metrics_line(result);
  }

  for (const auto& e : sum.errors) std::printf("error: %s\n", e.c_str());
  for (const auto& e : problems) std::printf("problem: %s\n", e.c_str());
  const bool correct = sum.failed == 0 && problems.empty();
  // error_ratio is printed above but left out of the result line: at the
  // parent it is exactly 0 on every run, and failures are already counted
  // in "failed".
  print_result(correct, sum, result, {"error_ratio"});
  return finish(0);
}

#include "simnest/workload.h"

#include <memory>
#include <set>

#include "common/units.h"
#include "sim/sync.h"

namespace nest::simnest {

using sim::Co;

namespace {

struct GroupStats {
  std::int64_t requests = 0;
  Nanos latency_total = 0;
};

// One client: fetch its file(s) in a loop until the deadline.
Co<void> client_loop(sim::Engine& eng, SimNest& server,
                     ProtocolBehavior proto, std::vector<std::string> paths,
                     Nanos start, Nanos deadline, GroupStats& stats) {
  std::size_t next = 0;
  while (eng.now() < deadline) {
    const std::string& path = paths[next];
    next = (next + 1) % paths.size();
    const Nanos begin = eng.now();
    co_await server.client_get(proto, path);
    const Nanos end = eng.now();
    if (begin >= start && end <= deadline) {
      stats.requests += 1;
      stats.latency_total += end - begin;
    }
  }
}

using ClassBytes = std::map<std::string, std::int64_t>;

}  // namespace

WorkloadResult run_get_workload(sim::Engine& eng, const WorkloadSpec& spec) {
  const Nanos start = eng.now() + spec.warmup;
  const Nanos deadline = start + spec.duration;

  // Distinct servers involved (JBOS runs several on one host).
  std::set<SimNest*> servers;
  for (const ClientGroup& g : spec.groups) servers.insert(g.server);

  // Bandwidth is measured from the transfer cores' per-class byte counts
  // — the same accounting the appliance itself exports — snapshotted at
  // the window edges so partially-complete transfers count.
  auto start_snap = std::make_shared<std::map<SimNest*, ClassBytes>>();
  auto end_snap = std::make_shared<std::map<SimNest*, ClassBytes>>();
  eng.schedule_at(start, [start_snap, servers] {
    for (SimNest* s : servers) {
      (*start_snap)[s] = s->core().class_bytes();
    }
  });
  eng.schedule_at(deadline, [end_snap, servers] {
    for (SimNest* s : servers) {
      (*end_snap)[s] = s->core().class_bytes();
    }
  });

  // Set up the namespace: each client gets its own file set so file names
  // never collide across groups/servers.
  std::vector<std::unique_ptr<GroupStats>> stats;
  int group_idx = 0;
  for (const ClientGroup& g : spec.groups) {
    stats.push_back(std::make_unique<GroupStats>());
    GroupStats& gs = *stats.back();
    for (int c = 0; c < g.clients; ++c) {
      std::vector<std::string> paths;
      for (int f = 0; f < g.files_per_client; ++f) {
        const std::string path = "/" + g.protocol + "-g" +
                                 std::to_string(group_idx) + "-c" +
                                 std::to_string(c) + "-f" + std::to_string(f);
        g.server->add_file(path, g.file_size, g.cached);
        paths.push_back(path);
      }
      sim::spawn(client_loop(eng, *g.server,
                             ProtocolBehavior::by_name(g.protocol),
                             std::move(paths), start, deadline, gs));
    }
    ++group_idx;
  }

  eng.run();

  WorkloadResult result;
  std::int64_t total_bytes = 0;
  for (SimNest* s : servers) {
    for (const auto& [proto, bytes_end] : (*end_snap)[s]) {
      std::int64_t bytes_start = 0;
      const auto& ss = (*start_snap)[s];
      if (const auto it = ss.find(proto); it != ss.end())
        bytes_start = it->second;
      const std::int64_t delta = bytes_end - bytes_start;
      result.class_mbps[proto] += mb_per_sec(delta, spec.duration);
      total_bytes += delta;
    }
  }
  result.total_mbps = mb_per_sec(total_bytes, spec.duration);

  std::map<std::string, GroupStats> class_stats;
  for (std::size_t i = 0; i < spec.groups.size(); ++i) {
    const std::string& proto = spec.groups[i].protocol;
    auto& cs = class_stats[proto];
    cs.requests += stats[i]->requests;
    cs.latency_total += stats[i]->latency_total;
  }
  for (const auto& [proto, cs] : class_stats) {
    result.completed_requests += cs.requests;
    result.class_latency_ms[proto] =
        cs.requests > 0
            ? static_cast<double>(cs.latency_total) /
                  static_cast<double>(cs.requests) / 1e6
            : 0.0;
  }
  return result;
}

}  // namespace nest::simnest

// The benchmark's view of the nestd process: spawn it in its own process
// group, wait for its listening line, read /proc/<pid>, and kill and reap
// the whole group after every run and on any abort.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "common/result.h"

namespace livebench {

struct Ports {
  std::uint16_t chirp = 0;
  std::uint16_t http = 0;
  std::uint16_t gridftp = 0;
  std::uint16_t nfs = 0;
};

// Parses "... listening: chirp=N http=N ftp=N gridftp=N nfs(udp)=N".
bool parse_listening_line(const std::string& line, Ports* out);

struct ProcSample {
  double cpu_s = 0;          // utime + stime
  std::int64_t rss_kb = 0;   // VmRSS
  std::int64_t hwm_kb = 0;   // VmHWM
  std::int64_t threads = 0;  // Threads
  std::int64_t maps = 0;     // lines in /proc/<pid>/maps
};
NEST_NODISCARD nest::Result<ProcSample> sample_proc(pid_t pid);

class Nestd {
 public:
  // Fork + exec `binary config` in a fresh process group; stdout is read
  // up to the listening line within `timeout_ms`, stderr goes to
  // `log_path`.
  NEST_NODISCARD static nest::Result<Nestd> spawn(const std::string& binary,
                                                  const std::string& config,
                                                  const std::string& log_path,
                                                  int timeout_ms);
  Nestd() = default;
  Nestd(Nestd&& o) noexcept;
  Nestd& operator=(Nestd&& o) noexcept;
  Nestd(const Nestd&) = delete;
  Nestd& operator=(const Nestd&) = delete;
  ~Nestd() { (void)stop(); }  // errors already reported by an explicit stop

  pid_t pid() const { return pid_; }
  const Ports& ports() const { return ports_; }

  // SIGTERM the group, wait up to a grace period for a clean exit, then
  // SIGKILL the group and reap. Ok only for exit status 0 (or death by
  // that SIGTERM) and an empty group afterwards.
  NEST_NODISCARD nest::Status stop();

  // SIGKILL the group and reap it, for a process whose clean exit is not
  // checked (a start-up that is only timed). Ok for an empty group after.
  NEST_NODISCARD nest::Status kill();

 private:
  // After the leader is reaped: reap orphans, kill anything left in the
  // group (an error unless `result` already is one), close stdout.
  nest::Status release(pid_t pid, nest::Status result);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  Ports ports_;
};

// Abort path: SIGKILL and reap every process group this process spawned
// and has not yet stopped. Safe to call from a watchdog thread.
void kill_all_spawned();

}  // namespace livebench

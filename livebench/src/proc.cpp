#include "proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

namespace livebench {

using nest::Errc;
using nest::Error;
using nest::Result;
using nest::Status;

namespace {

// Process groups spawned and not yet stopped, for the abort path.
std::mutex g_groups_mu;
std::set<pid_t> g_groups;

void track(pid_t pgid, bool live) {
  std::lock_guard lock(g_groups_mu);
  if (live) {
    g_groups.insert(pgid);
  } else {
    g_groups.erase(pgid);
  }
}

// Reap any orphaned grandchildren re-parented to us (we are a subreaper).
void reap_orphans() {
  while (::waitpid(-1, nullptr, WNOHANG) > 0) {
  }
}

bool group_alive(pid_t pgid) {
  return ::kill(-pgid, 0) == 0 || errno == EPERM;
}

std::int64_t status_field_kb(const std::string& text, const char* key) {
  const auto at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoll(text.c_str() + at + std::strlen(key), nullptr, 10);
}

}  // namespace

bool parse_listening_line(const std::string& line, Ports* out) {
  const auto at = line.find("listening:");
  if (at == std::string::npos) return false;
  unsigned chirp = 0, http = 0, ftp = 0, gridftp = 0, nfs = 0;
  if (std::sscanf(line.c_str() + at,
                  "listening: chirp=%u http=%u ftp=%u gridftp=%u nfs(udp)=%u",
                  &chirp, &http, &ftp, &gridftp, &nfs) != 5) {
    return false;
  }
  out->chirp = static_cast<std::uint16_t>(chirp);
  out->http = static_cast<std::uint16_t>(http);
  out->gridftp = static_cast<std::uint16_t>(gridftp);
  out->nfs = static_cast<std::uint16_t>(nfs);
  return true;
}

Result<ProcSample> sample_proc(pid_t pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  ProcSample s;
  {
    std::ifstream in(base + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const auto close = text.rfind(')');
    if (close == std::string::npos)
      return Error{Errc::not_found, "no " + base + "/stat"};
    // Fields after "pid (comm)": state is field 3, utime 14, stime 15.
    std::istringstream rest(text.substr(close + 2));
    std::string field;
    long long utime = 0, stime = 0;
    for (int f = 3; f <= 15 && rest >> field; ++f) {
      if (f == 14) utime = std::atoll(field.c_str());
      if (f == 15) stime = std::atoll(field.c_str());
    }
    s.cpu_s = static_cast<double>(utime + stime) /
              static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  {
    std::ifstream in(base + "/status");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (text.empty()) return Error{Errc::not_found, "no " + base + "/status"};
    s.rss_kb = status_field_kb(text, "VmRSS:");
    s.hwm_kb = status_field_kb(text, "VmHWM:");
    s.threads = status_field_kb(text, "Threads:");
  }
  {
    std::ifstream in(base + "/maps");
    std::string line;
    while (std::getline(in, line)) ++s.maps;
  }
  return s;
}

Result<Nestd> Nestd::spawn(const std::string& binary, const std::string& config,
                           const std::string& log_path, int timeout_ms) {
  // Orphans of anything we spawn re-parent to us, so nothing escapes the
  // reap after a run.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0)
    return Error{Errc::io_error, std::string("pipe: ") + std::strerror(errno)};
  const int logfd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (logfd < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    return Error{Errc::io_error, "open " + log_path};
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: async-signal-safe calls only until exec.
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::dup2(logfd, STDERR_FILENO);
    ::execl(binary.c_str(), binary.c_str(), config.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(pipefd[1]);
  ::close(logfd);
  if (pid < 0) {
    ::close(pipefd[0]);
    return Error{Errc::io_error, std::string("fork: ") + std::strerror(errno)};
  }
  ::setpgid(pid, pid);  // also done by the child; whichever runs first wins
  track(pid, true);

  Nestd proc;
  proc.pid_ = pid;
  proc.out_fd_ = pipefd[0];

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::string pending;
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0)
      return Error{Errc::timed_out, "nestd printed no listening line"};
    pollfd pfd{proc.out_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(proc.out_fd_, buf, sizeof buf);
    if (n <= 0) return Error{Errc::io_error, "nestd exited during start-up"};
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t eol;
    while ((eol = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, eol);
      pending.erase(0, eol + 1);
      if (parse_listening_line(line, &proc.ports_)) return proc;
    }
  }
}

Nestd::Nestd(Nestd&& o) noexcept
    : pid_(std::exchange(o.pid_, -1)),
      out_fd_(std::exchange(o.out_fd_, -1)),
      ports_(o.ports_) {}

Nestd& Nestd::operator=(Nestd&& o) noexcept {
  if (this != &o) {
    (void)stop();  // a replaced process is stopped; its errors are moot
    pid_ = std::exchange(o.pid_, -1);
    out_fd_ = std::exchange(o.out_fd_, -1);
    ports_ = o.ports_;
  }
  return *this;
}

Status Nestd::stop() {
  if (pid_ < 0) return {};
  const pid_t pid = std::exchange(pid_, -1);
  ::kill(-pid, SIGTERM);
  int wstatus = 0;
  bool exited = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const pid_t r = ::waitpid(pid, &wstatus, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) {
      exited = r == pid;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Status result;
  if (!exited) {
    ::kill(-pid, SIGKILL);
    ::waitpid(pid, &wstatus, 0);
    result = Status{Errc::timed_out, "nestd ignored SIGTERM; killed"};
  } else if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGTERM) {
    // nestd installs its SIGTERM handler only after printing the listening
    // line, so a stop right after start-up may end it by the default
    // action: still the stop we asked for.
  } else if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    result = Status{Errc::internal,
                    "nestd exited abnormally (status " +
                        std::to_string(wstatus) + ")"};
  }
  return release(pid, std::move(result));
}

Status Nestd::kill() {
  if (pid_ < 0) return {};
  const pid_t pid = std::exchange(pid_, -1);
  ::kill(-pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return release(pid, {});
}

Status Nestd::release(pid_t pid, Status result) {
  reap_orphans();
  if (group_alive(pid)) {
    ::kill(-pid, SIGKILL);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    reap_orphans();
    if (result.ok())
      result = Status{Errc::internal, "processes left in nestd's group"};
  }
  track(pid, false);
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  return result;
}

void kill_all_spawned() {
  std::set<pid_t> groups;
  {
    std::lock_guard lock(g_groups_mu);
    groups.swap(g_groups);
  }
  for (const pid_t pg : groups) ::kill(-pg, SIGKILL);
  for (const pid_t pg : groups) ::waitpid(pg, nullptr, 0);
  reap_orphans();
}

}  // namespace livebench

// Minimal leveled logger. NeST is a long-running daemon; components log
// through here rather than writing to stderr directly, so every line
// carries a timestamp, a level and a component, and concurrent lines never
// interleave. Every level prints: an INFO line marks a rare lifecycle event
// (server up, journal recovered, failpoint armed, follower re-seeded), not
// per-request chatter. printf-style formatting (GCC 12 ships no <format>).
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string_view>

#include "common/mutex.h"

namespace nest {

enum class LogLevel { info, warn, error };

class Logger {
 public:
  static Logger& instance() {
    static Logger l;
    return l;
  }

  void write(LogLevel lvl, std::string_view component, std::string_view msg);

  __attribute__((format(printf, 4, 5))) void writef(LogLevel lvl,
                                                    const char* component,
                                                    const char* fmt, ...);

 private:
  // Innermost rank: components log while holding any subsystem lock.
  Mutex mu_{lockrank::Rank::logger, "log.mu"};
};

#define NEST_LOG_INFO(component, ...)                                      \
  ::nest::Logger::instance().writef(::nest::LogLevel::info, component,     \
                                    __VA_ARGS__)
#define NEST_LOG_WARN(component, ...)                                      \
  ::nest::Logger::instance().writef(::nest::LogLevel::warn, component,     \
                                    __VA_ARGS__)
#define NEST_LOG_ERROR(component, ...)                                     \
  ::nest::Logger::instance().writef(::nest::LogLevel::error, component,    \
                                    __VA_ARGS__)

}  // namespace nest

#include "common/log.h"

#include <chrono>
#include <string>

namespace nest {
namespace {

const char* level_tag(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::info: return "INFO ";
    case LogLevel::warn: return "WARN ";
    case LogLevel::error: return "ERROR";
  }
  return "?????";
}

}  // namespace

void Logger::write(LogLevel lvl, std::string_view component,
                   std::string_view msg) {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(now).count();
  MutexLock lock(mu_);
  std::fprintf(stderr, "[%lld.%03lld] %s %.*s: %.*s\n",
               static_cast<long long>(ms / 1000),
               static_cast<long long>(ms % 1000), level_tag(lvl),
               static_cast<int>(component.size()), component.data(),
               static_cast<int>(msg.size()), msg.data());
}

void Logger::writef(LogLevel lvl, const char* component, const char* fmt,
                    ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  write(lvl, component, buf);
}

}  // namespace nest

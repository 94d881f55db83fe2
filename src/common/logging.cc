#include "common/logging.h"

#include <atomic>
#include <cstdio>

namespace hermes {

namespace {
std::atomic<int> g_min_level{static_cast<int>(LogLevel::kWarn)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() { Emit(); }

void LogMessage::Emit() {
  if (static_cast<int>(level_) >=
      g_min_level.load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
  }
}

}  // namespace internal
}  // namespace hermes

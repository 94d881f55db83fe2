#ifndef HERMES_COMMON_LOGGING_H_
#define HERMES_COMMON_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace hermes {

/// \brief Severity levels for the library logger.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kFatal = 4 };

/// \brief Sets the minimum level that is emitted to stderr. Defaults to
/// `kWarn` so library internals stay quiet in tests and benchmarks.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal {

/// Stream-style log message collector; emits on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 protected:
  /// Writes the message to stderr if its level passes the threshold.
  void Emit();

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Message sink that aborts the process after emitting.
class FatalLogMessage : public LogMessage {
 public:
  FatalLogMessage(const char* file, int line)
      : LogMessage(LogLevel::kFatal, file, line) {}
  /// Emits before aborting: the base destructor, which emits otherwise,
  /// never runs after `abort()`.
  [[noreturn]] ~FatalLogMessage() {
    Emit();
    std::abort();
  }

  template <typename T>
  FatalLogMessage& operator<<(const T& v) {
    LogMessage::operator<<(v);
    return *this;
  }
};

}  // namespace internal

#define HERMES_LOG(level)                                             \
  ::hermes::internal::LogMessage(::hermes::LogLevel::k##level, __FILE__, \
                                 __LINE__)

/// \brief Aborts with a message when `cond` is false. Used for invariants
/// whose violation indicates a bug, not a runtime error.
#define HERMES_CHECK(cond)                                      \
  if (!(cond))                                                  \
  ::hermes::internal::FatalLogMessage(__FILE__, __LINE__)       \
      << "Check failed: " #cond " "

#define HERMES_CHECK_OK(expr)                                   \
  do {                                                          \
    ::hermes::Status _st = (expr);                              \
    HERMES_CHECK(_st.ok()) << _st.ToString();                   \
  } while (0)

#define HERMES_DCHECK(cond) HERMES_CHECK(cond)

}  // namespace hermes

#endif  // HERMES_COMMON_LOGGING_H_

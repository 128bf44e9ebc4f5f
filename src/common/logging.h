#ifndef MLLIBSTAR_COMMON_LOGGING_H_
#define MLLIBSTAR_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace mllibstar {

/// Severity levels for the minimal logging facility.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

namespace internal_logging {

/// Accumulates one log line and emits it (to stderr) on destruction
/// when its level is kInfo or above. A kFatal message aborts the
/// process after emitting.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal_logging

#define MLLIBSTAR_LOG_INTERNAL(level)                                     \
  ::mllibstar::internal_logging::LogMessage(level, __FILE__, __LINE__).stream()

#define LOG_DEBUG() MLLIBSTAR_LOG_INTERNAL(::mllibstar::LogLevel::kDebug)
#define LOG_INFO() MLLIBSTAR_LOG_INTERNAL(::mllibstar::LogLevel::kInfo)
#define LOG_WARNING() MLLIBSTAR_LOG_INTERNAL(::mllibstar::LogLevel::kWarning)
#define LOG_ERROR() MLLIBSTAR_LOG_INTERNAL(::mllibstar::LogLevel::kError)
#define LOG_FATAL() MLLIBSTAR_LOG_INTERNAL(::mllibstar::LogLevel::kFatal)

/// Aborts with a message when `condition` is false. Active in all build
/// types: these guard internal invariants, not user input (user input is
/// validated with Status returns).
#define MLLIBSTAR_CHECK(condition)                                   \
  if (!(condition))                                                  \
  LOG_FATAL() << "Check failed: " #condition " "

#define MLLIBSTAR_CHECK_OK(expr)                                     \
  if (::mllibstar::Status _check_st = (expr); !_check_st.ok())       \
  LOG_FATAL() << "Check failed (status): " << _check_st.ToString()

#define MLLIBSTAR_CHECK_EQ(a, b) MLLIBSTAR_CHECK((a) == (b))
#define MLLIBSTAR_CHECK_NE(a, b) MLLIBSTAR_CHECK((a) != (b))
#define MLLIBSTAR_CHECK_LT(a, b) MLLIBSTAR_CHECK((a) < (b))
#define MLLIBSTAR_CHECK_LE(a, b) MLLIBSTAR_CHECK((a) <= (b))
#define MLLIBSTAR_CHECK_GT(a, b) MLLIBSTAR_CHECK((a) > (b))
#define MLLIBSTAR_CHECK_GE(a, b) MLLIBSTAR_CHECK((a) >= (b))

}  // namespace mllibstar

#endif  // MLLIBSTAR_COMMON_LOGGING_H_

#include "common/logging.h"

#include <mutex>

namespace mllibstar {
namespace internal_logging {
namespace {

/// Messages below this level are dropped.
constexpr LogLevel kMinLogLevel = LogLevel::kInfo;
std::mutex g_log_mutex;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

}  // namespace

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Strip directories from __FILE__ for terser output.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= kMinLogLevel) {
    std::lock_guard<std::mutex> lock(g_log_mutex);
    std::cerr << stream_.str() << std::endl;
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal_logging
}  // namespace mllibstar

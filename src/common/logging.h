#ifndef INSTANTDB_COMMON_LOGGING_H_
#define INSTANTDB_COMMON_LOGGING_H_

#include <string>

#include "common/strings.h"

namespace instantdb {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Minimum level; messages below it are discarded, so tests and benchmarks
/// stay quiet.
inline constexpr LogLevel kMinLogLevel = LogLevel::kWarn;

/// Writes one line to stderr: "[LEVEL file:line] message".
void LogMessage(LogLevel level, const char* file, int line,
                const std::string& message);

#define IDB_LOG(level, ...)                                              \
  do {                                                                   \
    if (static_cast<int>(level) >=                                       \
        static_cast<int>(::instantdb::kMinLogLevel)) {                   \
      ::instantdb::LogMessage(level, __FILE__, __LINE__,                 \
                              ::instantdb::StringPrintf(__VA_ARGS__));   \
    }                                                                    \
  } while (false)

#define IDB_DEBUG(...) IDB_LOG(::instantdb::LogLevel::kDebug, __VA_ARGS__)
#define IDB_INFO(...) IDB_LOG(::instantdb::LogLevel::kInfo, __VA_ARGS__)
#define IDB_WARN(...) IDB_LOG(::instantdb::LogLevel::kWarn, __VA_ARGS__)
#define IDB_ERROR(...) IDB_LOG(::instantdb::LogLevel::kError, __VA_ARGS__)

}  // namespace instantdb

#endif  // INSTANTDB_COMMON_LOGGING_H_

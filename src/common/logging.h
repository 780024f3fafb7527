// Minimal leveled logger.
//
// Protocol layers log at kDebug/kInfo; benches run with kWarn so output stays clean.
// Severity is a process-global because the simulator is single-threaded by design.
//
// The TOTORO_LOG_LEVEL environment variable (debug/info/warn/error/off, or 0-4)
// overrides the programmatic level unconditionally — it is parsed once, on first use,
// so a user can crank verbosity on any binary without recompiling.
#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <cstdarg>

namespace totoro {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Re-reads TOTORO_LOG_LEVEL. Called automatically on first Logf/GetLogLevel; exposed
// so tests can exercise the parser after setenv(). Returns true when the variable was
// present and valid.
bool InitLogLevelFromEnv();

// The thread's virtual clock (ms): the `now` of the simulator that runs on this thread.
// Log lines are prefixed with it and trace spans are stamped with it (src/obs/trace.h).
// The Simulator constructor registers its clock, and each K>1 worker its shard's; null
// when none is registered.
void SetVirtualClock(const double* now_ms);
const double* VirtualClock();

// printf-style logging; drops messages below the global level.
void Logf(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

}  // namespace totoro

#define TLOG_DEBUG(...) ::totoro::Logf(::totoro::LogLevel::kDebug, __VA_ARGS__)
#define TLOG_INFO(...) ::totoro::Logf(::totoro::LogLevel::kInfo, __VA_ARGS__)
#define TLOG_WARN(...) ::totoro::Logf(::totoro::LogLevel::kWarn, __VA_ARGS__)
#define TLOG_ERROR(...) ::totoro::Logf(::totoro::LogLevel::kError, __VA_ARGS__)

#endif  // SRC_COMMON_LOGGING_H_

#include "src/common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/env.h"

namespace totoro {
namespace {

LogLevel g_level = LogLevel::kWarn;
// When TOTORO_LOG_LEVEL is set it overrides SetLogLevel; g_env_level holds the parsed
// value and g_env_override marks it active.
bool g_env_override = false;
LogLevel g_env_level = LogLevel::kWarn;
thread_local const double* g_virtual_clock = nullptr;  // Per-thread: one simulator per thread.

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
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

bool ParseLevel(const char* s, LogLevel* out) {
  if (s == nullptr || *s == '\0') {
    return false;
  }
  if (std::strcmp(s, "debug") == 0 || std::strcmp(s, "DEBUG") == 0 ||
      std::strcmp(s, "0") == 0) {
    *out = LogLevel::kDebug;
  } else if (std::strcmp(s, "info") == 0 || std::strcmp(s, "INFO") == 0 ||
             std::strcmp(s, "1") == 0) {
    *out = LogLevel::kInfo;
  } else if (std::strcmp(s, "warn") == 0 || std::strcmp(s, "WARN") == 0 ||
             std::strcmp(s, "warning") == 0 || std::strcmp(s, "2") == 0) {
    *out = LogLevel::kWarn;
  } else if (std::strcmp(s, "error") == 0 || std::strcmp(s, "ERROR") == 0 ||
             std::strcmp(s, "3") == 0) {
    *out = LogLevel::kError;
  } else if (std::strcmp(s, "off") == 0 || std::strcmp(s, "OFF") == 0 ||
             std::strcmp(s, "none") == 0 || std::strcmp(s, "4") == 0) {
    *out = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

// Parsed exactly once per process (unless a test re-parses via InitLogLevelFromEnv).
void EnsureEnvParsed() {
  static const bool parsed = [] {
    InitLogLevelFromEnv();
    return true;
  }();
  (void)parsed;
}

LogLevel EffectiveLevel() {
  EnsureEnvParsed();
  return g_env_override ? g_env_level : g_level;
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }

LogLevel GetLogLevel() { return EffectiveLevel(); }

bool InitLogLevelFromEnv() {
  const char* value = EnvString("TOTORO_LOG_LEVEL");
  LogLevel parsed = LogLevel::kWarn;
  if (ParseLevel(value, &parsed)) {
    g_env_override = true;
    g_env_level = parsed;
    return true;
  }
  if (value != nullptr) {
    std::fprintf(stderr, "[WARN] TOTORO_LOG_LEVEL=\"%s\" not recognized (want debug/info/warn/error/off or 0-4)\n",
                 value);
  }
  g_env_override = false;
  return false;
}

void SetVirtualClock(const double* now_ms) { g_virtual_clock = now_ms; }

const double* VirtualClock() { return g_virtual_clock; }

void Logf(LogLevel level, const char* fmt, ...) {
  if (level < EffectiveLevel()) {
    return;
  }
  if (g_virtual_clock != nullptr) {
    std::fprintf(stderr, "[%s t=%.3f] ", LevelName(level), *g_virtual_clock);
  } else {
    std::fprintf(stderr, "[%s] ", LevelName(level));
  }
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace totoro

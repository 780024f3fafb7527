#include "src/common/env.h"

#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <thread>

#include "src/common/check.h"

namespace totoro {

const char* EnvString(const char* name) {
  const char* value = std::getenv(name);
  return (value == nullptr || *value == '\0') ? nullptr : value;
}

long EnvInt64(const char* name, long fallback, long min_value) {
  const char* value = EnvString(name);
  if (value == nullptr) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < min_value) {
    const std::string message = std::string(name) + "=\"" + value +
                                "\" is not an integer >= " + std::to_string(min_value);
    CheckFailed(__FILE__, __LINE__, message.c_str());
  }
  return parsed;
}

size_t EnvThreadCount(const char* name, size_t fallback) {
  return static_cast<size_t>(EnvInt64(name, static_cast<long>(fallback), 1));
}

size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max<size_t>(1, static_cast<size_t>(CPU_COUNT(&set)));
  }
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace totoro

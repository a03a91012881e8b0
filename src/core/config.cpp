#include "core/config.hpp"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace irmc {

int EnvInt(const std::string& name, int fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE || value <= 0 ||
      value > INT_MAX) {
    std::fprintf(stderr,
                 "invalid value for %s: '%s' (accepted: positive integer)\n",
                 name.c_str(), raw);
    std::exit(2);
  }
  return static_cast<int>(value);
}

}  // namespace irmc

#include "common/args.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace irmc {

Args Args::Parse(int argc, const char* const* argv) {
  Args args;
  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    args.command_ = argv[i];
    ++i;
  }
  while (i < argc) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.values_[key] = argv[i + 1];
        i += 2;
      } else {
        args.values_[key] = "";  // flag
        ++i;
      }
    } else {
      // Stray positional: callers either take it via Positionals() (file
      // operands) or see it in UnconsumedKeys() and reject it.
      args.positionals_.push_back(token);
      args.values_["<positional:" + token + ">"] = "";
      ++i;
    }
  }
  return args;
}

std::string Args::GetString(const std::string& key,
                            const std::string& fallback) const {
  consumed_[key] = true;
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long Args::GetInt(const std::string& key, long fallback) const {
  consumed_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& s = it->second;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || errno == ERANGE) Reject(key, s, "integer");
  return v;
}

double Args::GetDouble(const std::string& key, double fallback) const {
  consumed_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& s = it->second;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || errno == ERANGE || !std::isfinite(v))
    Reject(key, s, "finite number");
  return v;
}

int Args::GetIntAtLeast(const std::string& key, int fallback, int min) const {
  const long v = GetInt(key, fallback);
  if (v < min || v > INT_MAX)
    Reject(key, std::to_string(v), "integer >= " + std::to_string(min));
  return static_cast<int>(v);
}

std::string Args::GetChoice(const std::string& key, const std::string& fallback,
                            const std::vector<std::string>& allowed) const {
  consumed_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (std::find(allowed.begin(), allowed.end(), it->second) != allowed.end())
    return it->second;
  std::string accepted;
  for (const std::string& a : allowed) {
    if (!accepted.empty()) accepted += ", ";
    accepted += a;
  }
  Reject(key, it->second, accepted);
}

void Args::Reject(const std::string& key, const std::string& value,
                  const std::string& accepted) {
  std::fprintf(stderr, "invalid value for --%s: '%s' (accepted: %s)\n",
               key.c_str(), value.c_str(), accepted.c_str());
  std::exit(2);
}

bool Args::GetFlag(const std::string& key) const {
  consumed_[key] = true;
  return values_.count(key) > 0;
}

std::vector<std::string> Args::Positionals() const {
  for (const std::string& token : positionals_)
    consumed_["<positional:" + token + ">"] = true;
  return positionals_;
}

std::vector<std::string> Args::UnconsumedKeys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_)
    if (!consumed_.count(key)) out.push_back(key);
  return out;
}

}  // namespace irmc

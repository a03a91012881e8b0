// Minimal command-line argument parsing for the CLI tool.
//
// Supports `--key value`, `--flag`, and one positional command word.
// Unknown keys are collected so the caller can reject them with a
// proper message instead of silently ignoring typos.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace irmc {

class Args {
 public:
  /// argv[1] may be a positional command; everything else must be
  /// --key [value] pairs (a --key followed by another --key or the end
  /// is a flag).
  static Args Parse(int argc, const char* const* argv);

  const std::string& command() const { return command_; }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  /// Numeric options return `fallback` when the key is absent. A value
  /// that is present but does not parse completely (`2x`, `abc`, an
  /// empty flag form) or is out of range exits with status 2 via
  /// Reject, so a typo never silently runs the default.
  long GetInt(const std::string& key, long fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  /// GetInt for an int-sized option that must be at least `min`.
  int GetIntAtLeast(const std::string& key, int fallback, int min) const;
  bool GetFlag(const std::string& key) const;

  /// Enum-valued option: the provided value must be one of `allowed`,
  /// otherwise the process exits with status 2 after printing the
  /// accepted values (a typo must not silently fall back to the
  /// default). Returns `fallback` when the key is absent.
  std::string GetChoice(const std::string& key, const std::string& fallback,
                        const std::vector<std::string>& allowed) const;

  /// Prints `invalid value for --KEY: 'VALUE' (accepted: ACCEPTED)` and
  /// exits with status 2 — the one rejection path for bad option
  /// values, also used by callers for cross-option checks.
  [[noreturn]] static void Reject(const std::string& key,
                                  const std::string& value,
                                  const std::string& accepted);

  /// True when `--version` was passed (consumed). Every CLI checks this
  /// first and prints VersionLine(tool) + the BuildInfo JSON
  /// (common/build_info.hpp) before doing anything else.
  bool VersionRequested() const { return GetFlag("version"); }

  /// Stray non-flag tokens after the command word (file operands, ...),
  /// in argv order; marks them consumed.
  std::vector<std::string> Positionals() const;

  /// Keys the caller never consumed; call after all Get*.
  std::vector<std::string> UnconsumedKeys() const;

 private:
  std::string command_;
  std::map<std::string, std::string> values_;  // flag -> "" sentinel
  std::vector<std::string> positionals_;       // argv order
  mutable std::map<std::string, bool> consumed_;
};

}  // namespace irmc

// Structured results for the static invariant checker (see
// docs/verification.md).
//
// Each invariant check produces a CheckResult: pass/fail, how many
// entries were examined, how many violated the invariant, and the first
// few violations rendered as human-readable witness strings (a witness
// names the exact table entry, host pair, channel cycle, or string bit
// that breaks the invariant, so a failing report is directly actionable).
// A VerifyReport bundles the checks run against one System.
#pragma once

#include <string>
#include <vector>

namespace irmc::verify {

struct CheckResult {
  /// Stable check identifier ("phase-rule", "pairwise-reachability",
  /// "deadlock-freedom", "reachability-strings", "graph-consistency").
  std::string name;
  bool pass = true;
  /// Entries examined (routing entries, host pairs, channels, string
  /// bits — the unit is per check and stated in its witness text).
  long long checked = 0;
  long long violations = 0;
  /// First kMaxWitnesses violations, human-readable.
  std::vector<std::string> witnesses;
  /// Optional one-line extra context (e.g. dependency counts).
  std::string note;

  static constexpr int kMaxWitnesses = 8;

  /// Records one violation, keeping at most kMaxWitnesses witness lines.
  void AddViolation(std::string witness);
};

struct VerifyReport {
  /// What was verified (topology label, trial number, ...).
  std::string label;
  std::vector<CheckResult> checks;

  bool pass() const;
  /// Total violations across all checks.
  long long violations() const;
  /// The named check, or nullptr when it was not run.
  const CheckResult* Find(const std::string& name) const;
};

/// Renders the report for terminal output. Passing checks take one line;
/// failing checks additionally list their witnesses.
std::string Render(const VerifyReport& report);

/// snprintf into a std::string, for witness and note lines (at most 319
/// characters).
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
std::string
Fmt(const char* fmt, ...);

}  // namespace irmc::verify

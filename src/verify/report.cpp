#include "verify/report.hpp"

#include <cstdarg>
#include <cstdio>
#include <sstream>
#include <utility>

namespace irmc::verify {

void CheckResult::AddViolation(std::string witness) {
  pass = false;
  ++violations;
  if (witnesses.size() < static_cast<std::size_t>(kMaxWitnesses))
    witnesses.push_back(std::move(witness));
}

bool VerifyReport::pass() const {
  for (const CheckResult& c : checks)
    if (!c.pass) return false;
  return true;
}

long long VerifyReport::violations() const {
  long long total = 0;
  for (const CheckResult& c : checks) total += c.violations;
  return total;
}

const CheckResult* VerifyReport::Find(const std::string& name) const {
  for (const CheckResult& c : checks)
    if (c.name == name) return &c;
  return nullptr;
}

std::string Render(const VerifyReport& report) {
  std::ostringstream out;
  int failed = 0;
  for (const CheckResult& c : report.checks)
    if (!c.pass) ++failed;
  out << "verify " << (report.label.empty() ? "system" : report.label) << ": ";
  if (failed == 0) {
    out << "PASS (" << report.checks.size() << " checks)\n";
  } else {
    out << "FAIL (" << failed << "/" << report.checks.size()
        << " checks failed, " << report.violations() << " violations)\n";
  }
  for (const CheckResult& c : report.checks) {
    out << "  [" << (c.pass ? " ok " : "FAIL") << "] " << c.name << ": "
        << c.checked << " checked";
    if (!c.pass) out << ", " << c.violations << " violations";
    if (!c.note.empty()) out << " (" << c.note << ")";
    out << "\n";
    for (const std::string& w : c.witnesses) out << "         - " << w << "\n";
    if (c.violations > static_cast<long long>(c.witnesses.size()))
      out << "         - ... and "
          << c.violations - static_cast<long long>(c.witnesses.size())
          << " more\n";
  }
  return out.str();
}

std::string Fmt(const char* fmt, ...) {
  char buf[320];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf);
}

}  // namespace irmc::verify

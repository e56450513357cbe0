// Minimal command-line flag parsing for the bench binaries.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace uic {

/// \brief Parses "--name value" pairs from argv.
///
/// A malformed, out-of-range or missing value is a usage error: it prints
/// the offending flag to stderr and exits with status 2, the code every
/// binary here documents for usage errors, instead of silently parsing to
/// 0 (the `atol`/`atof` behaviour this class originally had).
class Flags {
 public:
  Flags(int argc, char** argv) : argc_(argc), argv_(argv) {}

  double GetDouble(const std::string& name, double def) const {
    const char* v = Find(name);
    if (!v) return def;
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(v, &end);
    if (end == v || *end != '\0') UsageError(name, v, "is not a number");
    // ERANGE with ±HUGE_VAL is overflow; ERANGE on underflow still returns a
    // usable (sub)normal value, so accept it.
    if (errno == ERANGE && (parsed == HUGE_VAL || parsed == -HUGE_VAL)) {
      UsageError(name, v, "is out of double range");
    }
    return parsed;
  }

  long GetInt(const std::string& name, long def) const {
    const char* v = Find(name);
    if (!v) return def;
    errno = 0;
    char* end = nullptr;
    const long parsed = std::strtol(v, &end, 10);
    if (end == v || *end != '\0') UsageError(name, v, "is not an integer");
    if (errno == ERANGE) UsageError(name, v, "is out of long range");
    return parsed;
  }

  std::string GetString(const std::string& name,
                        const std::string& def = "") const {
    const char* v = Find(name);
    return v ? std::string(v) : def;
  }

  bool GetBool(const std::string& name, bool def = false) const {
    for (int i = 1; i < argc_; ++i) {
      if (std::string(argv_[i]) == "--" + name) return true;
    }
    return def;
  }

  /// True when `--name` is given with a value.
  bool Has(const std::string& name) const { return Find(name) != nullptr; }

 private:
  /// Accepts both "--name value" and "--name=value".
  const char* Find(const std::string& name) const {
    const std::string flag = "--" + name;
    const std::string flag_eq = flag + "=";
    for (int i = 1; i < argc_; ++i) {
      if (flag == argv_[i]) {
        if (i + 1 >= argc_) UsageError(name, nullptr, "expects a value");
        return argv_[i + 1];
      }
      if (std::strncmp(argv_[i], flag_eq.c_str(), flag_eq.size()) == 0) {
        return argv_[i] + flag_eq.size();
      }
    }
    return nullptr;
  }

  /// Names the flag and its value on stderr, then exits 2.
  [[noreturn]] static void UsageError(const std::string& name,
                                      const char* value, const char* what) {
    if (value != nullptr) {
      std::fprintf(stderr, "flag --%s: '%s' %s\n", name.c_str(), value, what);
    } else {
      std::fprintf(stderr, "flag --%s %s\n", name.c_str(), what);
    }
    std::exit(2);
  }

  int argc_;
  char** argv_;
};

}  // namespace uic

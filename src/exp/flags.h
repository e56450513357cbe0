// Command-line flag parsing for uic_run, uic_served and bench_figures.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "exp/fields.h"

namespace uic {

/// \brief Parses "--name value" and "--name=value" pairs from argv.
///
/// A malformed, out-of-range or missing value is a usage error: the Get*
/// reads print the offending flag to stderr and exit with status 2, the
/// code every binary here documents for usage errors, instead of silently
/// parsing to 0 (the `atol`/`atof` behaviour this class originally had).
class Flags {
 public:
  Flags(int argc, char** argv) : argc_(argc), argv_(argv) {}

  double GetDouble(const std::string& name, double def) const {
    const std::optional<FieldValue> v = OrExit(Read(name, FieldKind::kNumber));
    return v ? v->number : def;
  }

  long GetInt(const std::string& name, long def) const {
    const std::optional<FieldValue> v = OrExit(Read(name, FieldKind::kInt));
    return v ? v->integer : def;
  }

  std::string GetString(const std::string& name,
                        const std::string& def = "") const {
    const std::optional<FieldValue> v = OrExit(Read(name, FieldKind::kText));
    return v ? v->text : def;
  }

  bool GetBool(const std::string& name, bool def = false) const {
    for (int i = 1; i < argc_; ++i) {
      if (std::string(argv_[i]) == "--" + name) return true;
    }
    return def;
  }

  /// The reader of a field table (exp/fields.h): applies each row whose
  /// --flag is given to `spec`, in table order. An error names the flag.
  template <typename Spec>
  [[nodiscard]] Status Apply(std::span<const Field<Spec>> fields,
                             Spec* spec) const {
    for (const Field<Spec>& field : fields) {
      Result<std::optional<FieldValue>> value = Read(field.flag, field.kind);
      if (!value.ok()) return value.status();
      if (!value.value().has_value()) continue;
      const Status st = field.set(*spec, *value.value());
      if (!st.ok()) {
        return Status(st.code(), std::string("flag --") + field.flag +
                                     ": '" + value.value()->text + "' " +
                                     st.message());
      }
    }
    return Status::OK();
  }

  /// Exits 2 on the first `--name` argument that is neither in `own` nor
  /// a row's flag in `tables`, or that repeats an earlier `--name`, in
  /// either spelling: the Get* reads see only the first.
  template <typename... Tables>
  void RejectUnknown(std::span<const std::string_view> own,
                     Tables... tables) const {
    std::vector<std::string_view> seen;
    for (int i = 1; i < argc_; ++i) {
      const std::string_view arg = argv_[i];
      if (!arg.starts_with("--")) continue;
      const std::string_view name = arg.substr(2, arg.find('=') - 2);
      if (std::ranges::find(own, name) == own.end() &&
          !(std::ranges::any_of(
                tables, [&](const auto& row) { return name == row.flag; }) ||
            ...)) {
        std::fprintf(stderr, "unknown flag %s\n", argv_[i]);
        std::exit(2);
      }
      if (std::ranges::find(seen, name) != seen.end()) {
        std::fprintf(stderr, "flag --%s given twice\n",
                     std::string(name).c_str());
        std::exit(2);
      }
      seen.push_back(name);
    }
  }

 private:
  /// The value of --name parsed as `kind`; nullopt when the flag is
  /// absent, InvalidArgument when its value is missing or malformed.
  Result<std::optional<FieldValue>> Read(const std::string& name,
                                         FieldKind kind) const {
    const std::string flag = "--" + name;
    const char* text = nullptr;
    for (int i = 1; i < argc_ && text == nullptr; ++i) {
      if (flag == argv_[i]) {
        if (i + 1 >= argc_) {
          return Status::InvalidArgument("flag " + flag + " expects a value");
        }
        text = argv_[i + 1];
      } else if (std::string_view(argv_[i]).starts_with(flag + "=")) {
        text = argv_[i] + flag.size() + 1;
      }
    }
    if (text == nullptr) return std::optional<FieldValue>();
    FieldValue value;
    value.text = text;
    const char* malformed = nullptr;
    char* end = nullptr;
    errno = 0;
    if (kind == FieldKind::kInt) {
      value.integer = std::strtoll(text, &end, 10);
      if (errno == ERANGE) malformed = "is out of long range";
      if (end == text || *end != '\0') malformed = "is not an integer";
    } else if (kind == FieldKind::kNumber) {
      value.number = std::strtod(text, &end);
      // ERANGE with ±HUGE_VAL is overflow; ERANGE on underflow still
      // returns a usable (sub)normal value, so accept it.
      if (errno == ERANGE && std::isinf(value.number)) {
        malformed = "is out of double range";
      }
      if (end == text || *end != '\0') malformed = "is not a number";
    }
    if (malformed == nullptr) return std::optional<FieldValue>(value);
    return Status::InvalidArgument("flag " + flag + ": '" + text + "' " +
                                   malformed);
  }

  /// The value, or the error on stderr and exit 2.
  static std::optional<FieldValue> OrExit(
      const Result<std::optional<FieldValue>>& value) {
    if (value.ok()) return value.value();
    std::fprintf(stderr, "%s\n", value.status().message().c_str());
    std::exit(2);
  }

  int argc_;
  char** argv_;
};

}  // namespace uic

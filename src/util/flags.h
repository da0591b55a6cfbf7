// Minimal command-line flag parsing for the CLI tool and examples.
//
// Supports `--name=value`, `--name value`, bare boolean `--name`, and
// positional arguments. No global registry: a parser instance owns the
// parsed state, which keeps tests hermetic.

#ifndef PINOCCHIO_UTIL_FLAGS_H_
#define PINOCCHIO_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pinocchio {

/// Parsed command line.
class FlagParser {
 public:
  /// Parses `args` (argv[1..] style; do not include the program name).
  /// `--` stops flag parsing; everything after is positional.
  explicit FlagParser(const std::vector<std::string>& args);

  /// Convenience for main(): skips argv[0].
  FlagParser(int argc, const char* const* argv);

  /// True if the flag was present (with or without a value).
  bool Has(const std::string& name) const;

  /// True if the flag appeared bare (no `=value` and no value token).
  /// Lets callers that require a value distinguish "--out" (present but
  /// valueless — e.g. swallowed by a following "--flag" token) from a
  /// genuinely absent flag, instead of silently reading nullopt.
  bool IsValueless(const std::string& name) const;

  /// Problems detected while parsing, one message per offence. Currently:
  /// a flag redefined inconsistently (bare in one occurrence, valued in
  /// another) — for consistent duplicates the last occurrence wins
  /// silently. CLIs should reject the command line when non-empty.
  const std::vector<std::string>& errors() const { return errors_; }

  /// The flag's raw value; nullopt when absent or valueless (use
  /// IsValueless() to tell the two apart).
  std::optional<std::string> GetString(const std::string& name) const;

  /// Typed accessors with defaults. A present-but-malformed value returns
  /// nullopt from the Try* variants and the default from the Get* ones,
  /// recording the problem in errors().
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;

  /// GetInt restricted to [lo, hi]: an absent flag yields the default; a
  /// malformed or out-of-range value yields nullopt and a message in
  /// `*error`, so callers reject it instead of casting it into range.
  std::optional<int64_t> GetIntInRange(const std::string& name,
                                       int64_t default_value, int64_t lo,
                                       int64_t hi, std::string* error) const;

  /// Booleans: bare `--name` and `--name=true/1/yes` are true;
  /// `--name=false/0/no` is false.
  bool GetBool(const std::string& name, bool default_value) const;

  /// Arguments that were not flags, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flag names seen on the command line.
  std::vector<std::string> FlagNames() const;

  /// Names present on the command line but not in `known`; used by the
  /// CLI to reject typos.
  std::vector<std::string> UnknownFlags(
      const std::vector<std::string>& known) const;

 private:
  void Parse(const std::vector<std::string>& args);

  std::map<std::string, std::string> values_;  // "" when valueless
  std::map<std::string, bool> valueless_;
  std::vector<std::string> positional_;
  std::vector<std::string> errors_;
};

}  // namespace pinocchio

#endif  // PINOCCHIO_UTIL_FLAGS_H_

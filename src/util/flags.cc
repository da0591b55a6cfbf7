#include "util/flags.h"

#include <algorithm>

#include "util/string_utils.h"

namespace pinocchio {

FlagParser::FlagParser(const std::vector<std::string>& args) { Parse(args); }

FlagParser::FlagParser(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  Parse(args);
}

void FlagParser::Parse(const std::vector<std::string>& args) {
  // Records one occurrence of `name`. A flag seen both bare and with a
  // value is almost always a swallowed argument (e.g. `--out --legacy`
  // followed by `--out=x` elsewhere), so the disagreement is reported via
  // errors() instead of letting one occurrence silently shadow the other.
  const auto record = [&](const std::string& name, const std::string& value,
                          bool bare) {
    const auto it = valueless_.find(name);
    if (it != valueless_.end() && it->second != bare) {
      errors_.push_back("flag --" + name +
                        " redefined inconsistently: given both with and "
                        "without a value");
    }
    values_[name] = value;
    valueless_[name] = bare;
  };

  bool flags_done = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (flags_done || !StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    if (arg == "--") {
      flags_done = true;
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      record(body.substr(0, eq), body.substr(eq + 1), /*bare=*/false);
      continue;
    }
    // `--name value` when the next token is not itself a flag; otherwise a
    // bare boolean (detectable via IsValueless when a value was expected).
    if (i + 1 < args.size() && !StartsWith(args[i + 1], "--")) {
      record(body, args[i + 1], /*bare=*/false);
      ++i;
    } else {
      record(body, "", /*bare=*/true);
    }
  }
}

bool FlagParser::IsValueless(const std::string& name) const {
  const auto it = valueless_.find(name);
  return it != valueless_.end() && it->second;
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::optional<std::string> FlagParser::GetString(
    const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  const auto vl = valueless_.find(name);
  if (vl != valueless_.end() && vl->second) return std::nullopt;
  return it->second;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  return GetString(name).value_or(default_value);
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  const auto raw = GetString(name);
  if (!raw.has_value()) return default_value;
  double v = 0.0;
  return ParseDouble(*raw, &v) ? v : default_value;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  const auto raw = GetString(name);
  if (!raw.has_value()) return default_value;
  int64_t v = 0;
  return ParseInt64(*raw, &v) ? v : default_value;
}

std::optional<int64_t> FlagParser::GetIntInRange(const std::string& name,
                                                int64_t default_value,
                                                int64_t lo, int64_t hi,
                                                std::string* error) const {
  const auto raw = GetString(name);
  if (!raw.has_value() && !IsValueless(name)) return default_value;
  int64_t v = 0;
  if (raw.has_value() && ParseInt64(*raw, &v) && v >= lo && v <= hi) return v;
  *error = "--" + name + " must be an integer in [" + std::to_string(lo) +
           ", " + std::to_string(hi) + "]";
  return std::nullopt;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  if (!Has(name)) return default_value;
  const auto vl = valueless_.find(name);
  if (vl != valueless_.end() && vl->second) return true;
  const std::string value = GetString(name, "");
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  return default_value;
}

std::vector<std::string> FlagParser::FlagNames() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) {
    (void)value;
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> FlagParser::UnknownFlags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      unknown.push_back(name);
    }
  }
  return unknown;
}

}  // namespace pinocchio

#pragma once
// Minimal command-line parsing for the bench/example binaries.
//
// Supports `--flag`, `--key value` and `--key=value`.  Unknown arguments are
// collected as positionals.  Deliberately tiny: the harness binaries need a
// handful of switches (--full, --level N, --gadget NAME), not a framework.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sani {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True if `--name` was passed (with or without a value).
  bool has(const std::string& name) const;

  /// The value of `--name value` / `--name=value`, if present.
  std::optional<std::string> value(const std::string& name) const;

  /// Integer-valued option with a default.  The whole value must parse as
  /// an int: "abc", "4x" or an out-of-range number throws
  /// std::invalid_argument ("--jobs: expected an integer, got 'abc'").
  int value_int(const std::string& name, int def) const;

  /// Unsigned 64-bit option with a default (byte caps, shard sizes).  The
  /// whole value must parse as a non-negative integer that fits, or it
  /// throws std::invalid_argument as value_int does ("-1" and "12abc" are
  /// errors, not a wrapped or truncated value).
  std::uint64_t value_u64(const std::string& name, std::uint64_t def) const;

  /// Double-valued option with a default (fractional --time-limit etc.).
  /// The whole value must parse as a finite number, or it throws
  /// std::invalid_argument as value_int does.
  double value_double(const std::string& name, double def) const;

  /// String-valued option with a default.
  std::string value_or(const std::string& name, const std::string& def) const;

  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  std::vector<std::pair<std::string, std::string>> options_;  // name -> value
  std::vector<std::string> positionals_;
};

}  // namespace sani

#include "util/cli.h"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace sani {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    options_.emplace_back(std::move(name), std::move(value));
  }
}

bool CliArgs::has(const std::string& name) const {
  for (const auto& [k, v] : options_)
    if (k == name) return true;
  return false;
}

std::optional<std::string> CliArgs::value(const std::string& name) const {
  for (const auto& [k, v] : options_)
    if (k == name && !v.empty()) return v;
  return std::nullopt;
}

namespace {

/// Parses all of `text` as a T; throws std::invalid_argument naming the flag
/// on trailing garbage, an empty string or an out-of-range value.
template <typename T>
T parse_number(const std::string& name, const std::string& text,
               const char* what) {
  T out{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec == std::errc::result_out_of_range)
    throw std::invalid_argument("--" + name + ": expected " + what +
                                " in range, got '" + text + "'");
  if (ec != std::errc() || ptr != end)
    throw std::invalid_argument("--" + name + ": expected " + what +
                                ", got '" + text + "'");
  return out;
}

}  // namespace

int CliArgs::value_int(const std::string& name, int def) const {
  auto v = value(name);
  return v ? parse_number<int>(name, *v, "an integer") : def;
}

std::uint64_t CliArgs::value_u64(const std::string& name,
                                 std::uint64_t def) const {
  auto v = value(name);
  return v ? parse_number<std::uint64_t>(name, *v, "a non-negative integer")
           : def;
}

double CliArgs::value_double(const std::string& name, double def) const {
  auto v = value(name);
  if (!v) return def;
  const double d = parse_number<double>(name, *v, "a number");
  if (!std::isfinite(d))
    throw std::invalid_argument("--" + name + ": expected a finite number, "
                                "got '" + *v + "'");
  return d;
}

std::string CliArgs::value_or(const std::string& name,
                              const std::string& def) const {
  auto v = value(name);
  return v ? *v : def;
}

}  // namespace sani

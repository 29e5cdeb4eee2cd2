#include "util/cli.hpp"

#include <limits>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/error.hpp"

namespace charlie::util {

Cli::Cli(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    args_.push_back({argv[i], false});
  }
}

bool Cli::has_flag(const std::string& name) {
  for (auto& a : args_) {
    if (!a.consumed && a.text == name) {
      a.consumed = true;
      return true;
    }
  }
  return false;
}

std::string Cli::take_value(const std::string& name, bool& found) {
  found = false;
  for (std::size_t i = 0; i < args_.size(); ++i) {
    auto& a = args_[i];
    if (a.consumed) continue;
    if (a.text == name) {
      if (i + 1 >= args_.size()) {
        throw ConfigError("missing value after " + name);
      }
      a.consumed = true;
      args_[i + 1].consumed = true;
      found = true;
      return args_[i + 1].text;
    }
    const std::string prefix = name + "=";
    if (a.text.rfind(prefix, 0) == 0) {
      a.consumed = true;
      found = true;
      return a.text.substr(prefix.size());
    }
  }
  return {};
}

namespace {

// Strict whole-field parse: "5x" is a typo, not 5 (std::stoi would
// silently accept the prefix).
int parse_int(const std::string& name, const std::string& v) {
  const long value = parse_long_field(v, "invalid integer for " + name);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw ConfigError("integer out of range for " + name + ": " + v);
  }
  return static_cast<int>(value);
}

}  // namespace

int Cli::get_int(const std::string& name, int fallback) {
  bool found = false;
  const std::string v = take_value(name, found);
  return found ? parse_int(name, v) : fallback;
}

std::size_t Cli::get_count(const std::string& name, std::size_t fallback,
                           std::size_t min) {
  bool found = false;
  const std::string v = take_value(name, found);
  if (!found) return fallback;
  const int value = parse_int(name, v);
  if (value < 0 || static_cast<std::size_t>(value) < min) {
    throw ConfigError(name + " must be >= " + std::to_string(min) + ": " + v);
  }
  return static_cast<std::size_t>(value);
}

double Cli::get_double(const std::string& name, double fallback) {
  bool found = false;
  const std::string v = take_value(name, found);
  if (!found) return fallback;
  return parse_double_field(v, "invalid number for " + name);
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) {
  bool found = false;
  const std::string v = take_value(name, found);
  return found ? v : fallback;
}

void Cli::finish() const {
  for (const auto& a : args_) {
    if (!a.consumed) {
      throw ConfigError("unknown argument: " + a.text);
    }
  }
}

}  // namespace charlie::util

// Tiny command-line flag parser for benches and examples.
//
//   util::Cli cli(argc, argv);
//   const int reps   = cli.get_int("--reps", 5);
//   const bool quick = cli.has_flag("--quick");
//   cli.finish();  // reject unknown arguments
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace charlie::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if `name` was passed as a bare flag.
  bool has_flag(const std::string& name);

  /// Value of `--name value` or `--name=value`; `fallback` if absent.
  int get_int(const std::string& name, int fallback);
  double get_double(const std::string& name, double fallback);

  /// A count (`--runs 8`): like get_int, but throws ConfigError naming the
  /// flag when the value is below `min`, so a negative count never wraps
  /// into a huge size_t.
  std::size_t get_count(const std::string& name, std::size_t fallback,
                        std::size_t min = 0);
  std::string get_string(const std::string& name, const std::string& fallback);

  /// Throws ConfigError if any argument was never consumed (catches typos).
  void finish() const;

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  struct Arg {
    std::string text;
    bool consumed = false;
  };
  // Finds `name` (or `name=...`); marks it consumed; returns the value string
  // or nullopt-equivalent via `found`.
  std::string take_value(const std::string& name, bool& found);

  std::string program_;
  std::vector<Arg> args_;
};

}  // namespace charlie::util

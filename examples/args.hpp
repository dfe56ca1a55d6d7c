// Positional arguments of the example programs. Integers go through
// util::parse_int with the CLI's ranges, so "banana", "2x" or "-5" is
// an error and not a run at seed 0 or 2 s: the example prints what it
// rejected and its usage line, and exits 4 like `peerscope` does for a
// bad flag value.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "exp/runner.hpp"
#include "util/parse_int.hpp"

namespace peerscope::examples {

inline constexpr int kExitBadValue = 4;

class Args {
 public:
  /// `usage` is the synopsis printed after a rejected value, e.g.
  /// "quickstart [app] [seed] [duration_s]".
  Args(int argc, char** argv, const char* usage)
      : argc_(argc), argv_(argv), usage_(usage) {}

  /// argv[index], or `fallback` when it is absent.
  [[nodiscard]] std::string text(int index, const char* fallback) const {
    return index < argc_ ? argv_[index] : fallback;
  }
  [[nodiscard]] std::uint64_t seed(int index, std::uint64_t fallback) const {
    return integer<std::uint64_t>(index, "seed", fallback, 0,
                                  std::numeric_limits<std::uint64_t>::max());
  }
  [[nodiscard]] std::int64_t duration_s(int index,
                                        std::int64_t fallback) const {
    return integer<std::int64_t>(index, "duration_s", fallback, 1,
                                 exp::kMaxRunSeconds);
  }

 private:
  template <class T>
  [[nodiscard]] T integer(int index, const char* name, T fallback, T lo,
                          T hi) const {
    if (index >= argc_) return fallback;
    if (const auto value = util::parse_int<T>(argv_[index], lo, hi)) {
      return *value;
    }
    std::cerr << "invalid value for " << name << ": " << argv_[index]
              << "\nusage: " << usage_ << '\n';
    std::exit(kExitBadValue);
  }

  int argc_;
  char** argv_;
  const char* usage_;
};

}  // namespace peerscope::examples

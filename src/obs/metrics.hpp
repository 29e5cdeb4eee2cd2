// Named metrics: counters and log-binned histograms with deterministic
// aggregation and JSON export.
//
// MetricsRegistry is a *value* -- there is no global sink and no atomic in
// the data path. Producers fill a registry of their own (per run, per
// shard, per report) and consumers merge them in a fixed order, the same
// run-order-reduction discipline that makes BatchStats bit-identical at any
// thread count: counter adds are exact integer arithmetic, histogram bins
// are integer counts, and the floating-point sum/min/max moments are folded
// in merge order, so a reduction that walks runs 0..N-1 produces the same
// bytes no matter which worker produced which partial.
//
// Histograms are log-binned (one bin per power of two) because the engine's
// interesting distributions -- events per run, heap depths, response
// delays in seconds -- span many decades; a fixed-range linear histogram
// (sim::Histogram) needs the range up front, a log histogram does not.
//
// The util::RunCounters guard telemetry from PR 7 folds in through
// absorb_run_counters(), so per-run diagnostics and batch-level aggregates
// share one source of truth (the RunDiagnostics wire format is unchanged).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "util/diagnostics.hpp"

namespace charlie::obs {

/// Power-of-two-binned histogram: a finite value v > 0 lands in the bin
/// holding [2^e, 2^(e+1)) with e = floor(log2(v)). Values below the
/// smallest edge (or <= 0) count as underflow, values at or above the
/// largest as overflow; count/sum/min/max cover every added value.
class LogHistogram {
 public:
  /// Smallest / largest binned exponent: 2^-50 ~ 8.9e-16 (sub-femtosecond
  /// times) up to 2^34 ~ 1.7e10 (event counts).
  static constexpr int kMinExp = -50;
  static constexpr int kMaxExp = 34;
  static constexpr std::size_t kNumBins =
      static_cast<std::size_t>(kMaxExp - kMinExp);

  void add(double value);
  void merge(const LogHistogram& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  const std::array<std::uint64_t, kNumBins>& bins() const { return bins_; }

  /// Lower edge of bin i (= 2^(kMinExp + i)).
  static double bin_lo(std::size_t i);

  bool operator==(const LogHistogram& other) const;

 private:
  std::array<std::uint64_t, kNumBins> bins_{};
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Bump a named counter (creates it at zero first).
  void add(std::string_view name, long long delta = 1);

  /// Add one sample to a named histogram (creates it empty first).
  void observe(std::string_view name, double value);

  /// Current counter value; 0 for a name never bumped.
  long long counter(std::string_view name) const;

  /// Histogram by name; nullptr for a name never observed.
  const LogHistogram* histogram(std::string_view name) const;

  /// Fold `other` in (exact for counters and bin counts; moments fold in
  /// call order -- merge in a fixed order for bit-identical aggregates).
  void merge(const MetricsRegistry& other);

  /// Fold a histogram filled elsewhere into the one named `name` (creates
  /// it first), with the same ordering caveat.
  void merge(std::string_view name, const LogHistogram& histogram);

  bool empty() const { return counters_.empty() && histograms_.empty(); }

  // Deterministic (name-sorted) iteration for reports and serialization.
  const std::map<std::string, long long, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, LogHistogram, std::less<>>& histograms() const {
    return histograms_;
  }

  /// JSON export: {"counters": {name: value}, "histograms": {name:
  /// {count, sum, mean, min, max, underflow, overflow, bins: [{lo, count}]}}}
  /// with only non-empty bins listed. Schema in docs/observability.md.
  void write_json(std::ostream& os) const;
  void write_json(const std::string& path) const;
  std::string to_json() const;

  bool operator==(const MetricsRegistry& other) const;

 private:
  std::map<std::string, long long, std::less<>> counters_;
  std::map<std::string, LogHistogram, std::less<>> histograms_;
};

/// Fold one run's guard/fallback telemetry (the RunDiagnostics counters)
/// into `metrics` under the canonical names: run.newton_brent_fallbacks,
/// run.scan_fallbacks, run.nonfinite_guard_trips, run.fit_fallbacks.
void absorb_run_counters(MetricsRegistry& metrics,
                         const util::RunCounters& counters);

}  // namespace charlie::obs

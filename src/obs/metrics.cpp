#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace charlie::obs {

namespace {

// Shortest double representation that round-trips; matches the repo's CSV
// serialization convention.
std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void json_string_into(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

void LogHistogram::add(double value) {
  ++count_;
  sum_ += value;
  if (count_ == 1) {
    min_ = value;
    max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  if (!(value > 0.0) || !std::isfinite(value)) {
    // Zero, negative, and non-finite samples have no log2 bin; they still
    // contribute to count/sum/min/max above.
    ++underflow_;
    return;
  }
  int exp2 = 0;
  std::frexp(value, &exp2);  // value = m * 2^exp2, m in [0.5, 1)
  const int e = exp2 - 1;    // floor(log2(value))
  if (e < kMinExp) {
    ++underflow_;
  } else if (e >= kMaxExp) {
    ++overflow_;
  } else {
    ++bins_[static_cast<std::size_t>(e - kMinExp)];
  }
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < kNumBins; ++i) bins_[i] += other.bins_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      if (other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LogHistogram::bin_lo(std::size_t i) {
  return std::ldexp(1.0, kMinExp + static_cast<int>(i));
}

bool LogHistogram::operator==(const LogHistogram& other) const {
  return bins_ == other.bins_ && underflow_ == other.underflow_ &&
         overflow_ == other.overflow_ && count_ == other.count_ &&
         sum_ == other.sum_ && min_ == other.min_ && max_ == other.max_;
}

void MetricsRegistry::add(std::string_view name, long long delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::observe(std::string_view name, double value) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), LogHistogram{}).first;
  }
  it->second.add(value);
}

long long MetricsRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const LogHistogram* MetricsRegistry::histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) add(name, value);
  for (const auto& [name, histogram] : other.histograms_) {
    merge(name, histogram);
  }
}

void MetricsRegistry::merge(std::string_view name,
                            const LogHistogram& histogram) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    histograms_.emplace(std::string(name), histogram);
  } else {
    it->second.merge(histogram);
  }
}

bool MetricsRegistry::operator==(const MetricsRegistry& other) const {
  return counters_ == other.counters_ && histograms_ == other.histograms_;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << to_json();
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw ConfigError("metrics registry: cannot write " + path);
  write_json(os);
}

std::string MetricsRegistry::to_json() const {
  std::string out;
  out += "{\n \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\n  ";
    json_string_into(out, name);
    out += ": ";
    out += std::to_string(value);
  }
  out += first ? "},\n" : "\n },\n";
  out += " \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\n  ";
    json_string_into(out, name);
    out += ": {\"count\": " + std::to_string(h.count());
    out += ", \"sum\": " + format_double(h.sum());
    out += ", \"mean\": " + format_double(h.mean());
    out += ", \"min\": " + format_double(h.min());
    out += ", \"max\": " + format_double(h.max());
    out += ", \"underflow\": " + std::to_string(h.underflow());
    out += ", \"overflow\": " + std::to_string(h.overflow());
    out += ", \"bins\": [";
    bool first_bin = true;
    for (std::size_t i = 0; i < LogHistogram::kNumBins; ++i) {
      if (h.bins()[i] == 0) continue;
      if (!first_bin) out += ", ";
      first_bin = false;
      out += "{\"lo\": " + format_double(LogHistogram::bin_lo(i));
      out += ", \"count\": " + std::to_string(h.bins()[i]) + "}";
    }
    out += "]}";
  }
  out += first ? "}\n}\n" : "\n }\n}\n";
  return out;
}

void absorb_run_counters(MetricsRegistry& metrics,
                         const util::RunCounters& counters) {
  // Unconditional adds so the counters exist (at zero) even on clean runs:
  // a dashboard reading the JSON can tell "no fallbacks" from "not wired".
  metrics.add("run.newton_brent_fallbacks", counters.newton_brent_fallbacks);
  metrics.add("run.scan_fallbacks", counters.scan_fallbacks);
  metrics.add("run.nonfinite_guard_trips", counters.nonfinite_guard_trips);
  metrics.add("run.fit_fallbacks", counters.fit_fallbacks);
}

}  // namespace charlie::obs

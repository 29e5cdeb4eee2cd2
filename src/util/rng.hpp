// Deterministic random number generation.
//
// All stochastic components (trace generators, fitting restarts, Monte-Carlo
// benches) draw from an explicitly seeded Rng so experiments are exactly
// reproducible run-to-run.
#pragma once

#include <cstdint>
#include <random>

namespace charlie::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Normal with mean `mu` and standard deviation `sigma` (sigma >= 0).
  double normal(double mu, double sigma);

  /// Normal truncated to values > lo (resampled; lo must be < mu + 8 sigma).
  double normal_above(double mu, double sigma, double lo);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with probability `p` of true.
  bool bernoulli(double p);

  /// Fork an independent, deterministically derived stream (for per-run
  /// streams inside repeated experiments).
  Rng fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Counter-based stream keyed by (seed, index): a splitmix64 generator whose
/// state is a mix of the key, so the stream for index k is a pure function of
/// the key and never depends on how many other streams were drawn first.
/// This is what makes Monte-Carlo sample k's draws order-independent: any
/// worker, on any thread, at any time reconstructs exactly the same stream
/// from (base_seed, run_index).
class CounterRng {
 public:
  CounterRng(std::uint64_t seed, std::uint64_t index);

  /// Next raw 64-bit word of the stream.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Normal(mu, sigma) via Box-Muller (two uniforms per draw; sigma >= 0).
  double normal(double mu, double sigma);

  /// Normal(mu, sigma) with the standard score clamped to [-max_sigma,
  /// +max_sigma]; truncation keeps sampled process points inside the span a
  /// variation batch checks for validity before its first run.
  double normal_clamped(double mu, double sigma, double max_sigma);

 private:
  std::uint64_t state_;
};

}  // namespace charlie::util

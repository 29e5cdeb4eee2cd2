// Process variation for statistical batch simulation.
//
// ProcessVariation describes independent Gaussian perturbations of the
// core::ProcessPoint axes. sample(seed, run_index) draws a run's process
// corner from a counter-based RNG stream, so a sample is a pure function of
// (seed, global run index) -- never of which worker draws it or in which
// order runs execute (thread-count-invariant batches, split/replay-stable
// via BatchConfig::first_run_index). Samples clamp their standard score to
// +/- max_sigma, so every sample lies in the box 1 +/- max_sigma * sigma
// (vth_shift: 0 +/- max_sigma * sigma).
//
// ProcessBinder retargets one circuit clone to a sampled point between runs
// without allocation:
//   * hybrid MIS channels are rebound to a worker-local GateModeTables copy
//     re-derived exactly in place by GateModeTables::rederive_at (one copy
//     and one derivation per distinct cell table, shared by all its
//     instances) -- the same tables cell::CellLibrary::at_corner builds;
//   * inertial SIS channels get their nominal rise/fall delays scaled by
//     ProcessPoint::resistance_scale (the same factor
//     cell::CellLibrary::at_corner applies);
//   * wire channels (interconnect) deliberately stay nominal -- RC wires
//     carry no device parameters, only geometry.
// Binding the nominal point restores the original shared tables and delays
// bit-exactly, so a variation-capable batch with all sigmas at zero is
// indistinguishable from a pre-variation one.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/gate_mode_tables.hpp"
#include "core/process_point.hpp"
#include "sim/circuit.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/inertial.hpp"

namespace charlie::sim {

/// Gaussian process variation; all sigmas zero = nominal-only (disabled).
struct ProcessVariation {
  double vdd_sigma = 0.0;    // sigma of vdd_scale (relative, nominal 1)
  double vth_sigma = 0.0;    // sigma of vth_shift [V] (nominal 0)
  double drive_sigma = 0.0;  // sigma of drive_scale (relative, nominal 1)
  // Samples clamp their standard score to [-max_sigma, +max_sigma].
  double max_sigma = 3.5;
  // Nominal supply voltage used to close the SIS delay scale when the
  // circuit has no hybrid gate to read it from; 0 = read from the circuit.
  double vdd_nominal = 0.0;

  bool enabled() const {
    return vdd_sigma > 0.0 || vth_sigma > 0.0 || drive_sigma > 0.0;
  }

  /// Throws ConfigError on negative/non-finite sigmas, a non-positive
  /// max_sigma, or spans wide enough to cross zero supply or drive.
  void validate() const;

  /// The process sample of global run `run_index` under `seed`: a pure
  /// function of the key, independent of draw order. All three axes always
  /// consume the same number of stream draws, so enabling one sigma never
  /// shifts another axis's values.
  core::ProcessPoint sample(std::uint64_t seed, std::uint64_t run_index) const;
};

/// Everything that makes one batch run distinct: the stimulus stream seed
/// and the process sample. Both derive from (base_seed, global run index).
struct RunSpec {
  std::uint64_t stimulus_seed = 0;
  core::ProcessPoint point;
};

/// Per-worker channel retargeting (see the file comment). Construction
/// registers every process-aware channel -- the circuit's hybrid and
/// inertial channel arrays, which must not grow afterwards -- and
/// allocates the worker-local table copies; bind() is allocation-free.
class ProcessBinder {
 public:
  /// Registers the channels of `circuit`. `vdd_override` closes the SIS
  /// delay scale; 0 = read VDD from the first hybrid gate. Throws
  /// ConfigError when inertial channels exist but no VDD source does.
  explicit ProcessBinder(Circuit& circuit, double vdd_override = 0.0);

  /// Retarget every registered channel to `point`: one exact re-derivation
  /// per distinct cell table. Allocation-free; the nominal point restores
  /// the original tables/delays bit-exactly. Throws ConfigError when
  /// `point` lies outside a cell's validity region (closed overdrive).
  void bind(const core::ProcessPoint& point);

  std::size_t n_hybrid_channels() const { return hybrid_rebind_.size(); }
  std::size_t n_inertial_channels() const { return inertial_nominal_.size(); }
  double vdd_nominal() const { return vdd_nominal_; }

 private:
  struct TableRebind {
    std::shared_ptr<const core::GateModeTables> nominal;
    std::shared_ptr<core::GateModeTables> local;  // this binder's scratch
  };
  struct NominalDelays {
    double up = 0.0;
    double down = 0.0;
  };

  Circuit* circuit_;
  std::vector<TableRebind> rebinds_;
  // Per channel of the circuit's hybrid array: its index into rebinds_.
  std::vector<std::size_t> hybrid_rebind_;
  // Per channel of the circuit's inertial array: its nominal delays.
  std::vector<NominalDelays> inertial_nominal_;
  double vdd_nominal_ = 0.0;
};

}  // namespace charlie::sim

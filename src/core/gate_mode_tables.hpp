// Precomputed per-mode tables of the generalized N-input hybrid gate model.
//
// Event-driven simulation switches modes on every input transition, but the
// mode systems themselves depend only on the cell parameters: the 2^N ODEs,
// their eigendecompositions, particular solutions, steady states, and the
// spectral projector rows behind the scalar V_O expansion never change at
// runtime. GateModeTables computes all of it once per GateParams; channels
// share one immutable table through a shared_ptr, so a circuit with
// thousands of gate instances of the same cell pays the derivation exactly
// once and the per-event work reduces to a handful of multiply-adds.
//
// The paper's NOR2 is one instance, GateModeTables::make(
// GateParams::from_nor(p)); gate_state_from_mode() maps its four Modes onto
// input states.
#pragma once

#include <memory>
#include <vector>

#include "core/gate_modes.hpp"
#include "core/gate_params.hpp"
#include "ode/linear_ode2.hpp"

namespace charlie::core {

/// Precomputed quantities of one mode. The scalar expansion writes the
/// output voltage on a mode segment entered at state x_ref as
///
///   V_O(tau) = d + a1 e^{l1 tau} + a2 e^{l2 tau},
///   dev = x_ref - xp,  a1 = p1c dev.x + p1d dev.y,  a2 = dev.y - a1,
///
/// where (p1c, p1d) is the bottom row of the spectral projector
/// P1 = (A - l2 I)/(l1 - l2). Components with zero eigenvalue are constant
/// and fold into d (fold1/fold2). xp is the mode's particular solution: the
/// equilibrium when A is nonsingular, and a consistent solution of
/// A xp = -g when a frozen internal node makes A singular (possible for
/// both topologies; g need not vanish for NAND-like stacks).
struct ModeTable {
  ode::AffineOde2 ode;
  ode::Vec2 steady{};  // steady state; frozen V_int reported with hold = 0
  ode::Vec2 xp{};      // particular solution of the scalar expansion
  bool scalar_valid = false;  // false: defective/complex spectrum, use scan
  double d = 0.0;
  double l1 = 0.0;
  double l2 = 0.0;
  double p1c = 0.0;
  double p1d = 0.0;
  bool fold1 = false;
  bool fold2 = false;
  // Full spectral form of the state evolution,
  //   x(tau) = xp + e^{l1 tau} S1 (x_ref - xp) + e^{l2 tau} S2 (x_ref - xp),
  // valid when the spectrum is diagonalizable and a particular solution
  // exists. Two exp() calls replace the generic matrix-exponential
  // machinery on the event hot path.
  bool spectral_valid = false;
  ode::Mat2 s1{};
  ode::Mat2 s2{};
};

/// Derive every expansion field of a ModeTable (particular solution, scalar
/// two-exponential coefficients, spectral projectors) from its affine ODE.
/// `steady` is left default -- it encodes model-specific conventions (frozen
/// internal nodes, hold values) the caller owns. Shared by GateModeTables
/// and the interconnect tables (wire::WireModeTables), which collapse RC
/// lines to the same affine 2-state form.
ModeTable derive_mode_table(const ode::AffineOde2& mode_ode);

class GateModeTables {
 public:
  /// Validates `params` once (throws ConfigError) and derives all 2^N mode
  /// tables plus the crossing-search horizon (60 slowest time constants).
  explicit GateModeTables(const GateParams& params);

  /// Shared immutable table for reuse across many channel instances.
  static std::shared_ptr<const GateModeTables> make(const GateParams& params);

  /// Re-derive every table in place for new parameters of the same arity.
  /// No reallocation: this is the per-sample path of process-variation
  /// batches, where a worker-local copy of a cell's tables is rebound to a
  /// fresh process sample before each run. Throws ConfigError on invalid
  /// params or arity mismatch.
  void rederive(const GateParams& params);

  /// rederive(nominal.derive_for(point)) without the temporary: scales the
  /// nominal parameters directly into this object's storage. Bit-identical
  /// to GateModeTables(nominal.derive_for(point)).
  void rederive_at(const GateParams& nominal, const ProcessPoint& point);

  const GateParams& gate_params() const { return params_; }
  int n_inputs() const { return params_.n_inputs(); }
  GateState n_states() const {
    return static_cast<GateState>(tables_.size());
  }
  double vth() const { return vth_; }
  double horizon() const { return horizon_; }
  double delta_min() const { return params_.delta_min; }

  /// Worst-case hold value for a frozen internal node at initialization.
  double default_hold() const { return params_.worst_case_hold(); }

  /// Boolean output the gate settles to in `state`.
  bool output_value(GateState state) const {
    return gate_mode_output(params_.topology, state, params_.n_inputs());
  }

  const ModeTable& state_table(GateState state) const {
    return tables_[state];
  }

 private:
  /// Derive all 2^N tables + horizon from params_ (shared by the ctor and
  /// the rederive paths; resize is a no-op when the arity is unchanged).
  void derive_tables();

  GateParams params_;
  double vth_ = 0.0;
  double horizon_ = 0.0;
  std::vector<ModeTable> tables_;
};

}  // namespace charlie::core

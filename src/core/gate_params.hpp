// Parameters of the generalized N-input hybrid gate model.
//
// The paper's 2-input NOR (NorParams) is one instance of a series/parallel
// CMOS structure: a series stack of N transistors on one side of the output
// and N parallel transistors on the other. Replacing every transistor by an
// ideal switch + on-resistance and lumping the stack's internal parasitics
// into a single capacitance at the node adjacent to the output device keeps
// the state two-dimensional, (V_int, V_O), for any N -- so the entire
// closed-form mode machinery (two-exponential scalar expansion, spectral
// projectors, Newton crossing solve) carries over unchanged.
//
// Conventions (fixed, documented here once):
//   * kNorLike  -- series pMOS pull-up, parallel nMOS pull-down.
//     Chain order VDD -T_0- ... -T_{n-2}- INT -T_{n-1}- O: the device
//     adjacent to the output is driven by input n-1 (paper Fig 1 with
//     A = input 0, B = input 1).
//   * kNandLike -- parallel pMOS pull-up, series nMOS pull-down.
//     Chain order O -T_0- INT -T_1- ... -T_{n-1}- GND: the device adjacent
//     to the output is driven by input 0 (matches spice::build_nand2/3).
//   * r_series[i] is the on-resistance of input i's series-stack device,
//     r_parallel[i] of its parallel device. The devices of the stack that
//     are *not* adjacent to the output lump into one equivalent resistance
//     (their sum) whenever the whole sub-chain conducts.
#pragma once

#include <string>
#include <vector>

#include "core/nor_params.hpp"
#include "core/process_point.hpp"

namespace charlie::core {

/// Fixed upper bound on gate arity; lets channels use stack arrays on the
/// event hot path instead of heap-allocated input vectors.
inline constexpr int kMaxGateInputs = 8;

enum class GateTopology {
  kNorLike,   // series pull-up stack, parallel pull-down
  kNandLike,  // parallel pull-up, series pull-down stack (the dual)
};

struct GateParams {
  GateTopology topology = GateTopology::kNorLike;
  std::vector<double> r_series;    // per-input series-stack device [ohm]
  std::vector<double> r_parallel;  // per-input parallel device [ohm]
  double c_int = 0.0;  // lumped stack-internal node capacitance [farad]
  double c_out = 0.0;  // output load capacitance [farad]
  double vdd = 0.8;        // supply voltage [volt]
  double delta_min = 0.0;  // pure delay added to every gate delay [s]

  int n_inputs() const { return static_cast<int>(r_series.size()); }

  /// Discretization threshold V_th = VDD/2 (paper convention).
  double vth() const { return 0.5 * vdd; }

  /// Worst-case value of the frozen internal node when the gate is
  /// initialized in an isolated-stack state: GND for NOR-like (the pull-up
  /// must recharge the stack before the output), VDD for NAND-like (the
  /// pull-down must drain it first).
  double worst_case_hold() const;

  /// Throws ConfigError unless 2 <= n <= kMaxGateInputs, the two resistance
  /// vectors have equal size, all R/C values and vdd are positive and
  /// finite, and delta_min is non-negative and finite.
  void validate() const;

  std::string to_string() const;

  /// Parameters of this (nominal) cell at a process point: every
  /// on-resistance and delta_min scale by point.resistance_scale(vdd), the
  /// supply by vdd_scale, the capacitances stay fitted (see
  /// core/process_point.hpp for the scale rule). derive_for(nominal()) is
  /// the identity.
  GateParams derive_for(const ProcessPoint& point) const;

  /// Same, writing into `out` without reallocating when arities match (the
  /// per-sample path of GateModeTables::rederive_at). `out` must not alias
  /// this object.
  void derive_for_into(const ProcessPoint& point, GateParams& out) const;

  /// The paper's NOR2 as a GateParams: r_series = {R1, R2},
  /// r_parallel = {R3, R4}, c_int = C_N, c_out = C_O. Mode ODEs built from
  /// the result are bit-identical to the NorParams ones.
  static GateParams from_nor(const NorParams& params);

  /// Reference cells in the Table-I regime (per-device resistances of a few
  /// tens of kOhm, attofarad node capacitances) for tests and examples that
  /// do not fit against an analog substrate. nor2_reference() is exactly
  /// from_nor(NorParams::paper_table1()), so channels built from it stay
  /// bit-identical to the paper's NOR2.
  static GateParams nor2_reference();
  static GateParams nor3_reference();
  static GateParams nand2_reference();
  static GateParams nand3_reference();
};

}  // namespace charlie::core

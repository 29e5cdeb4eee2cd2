// The output side that HybridGateChannel and WireChannel share: a
// piecewise two-exponential waveform whose segments are the affine 2-state
// modes of a table set (a gate's 2^N input states, a wire's two drive
// states).
//
// A segment starts at a state snapshot (t_ref, x_ref) in one mode; the
// channel's output events are the threshold crossings of its scalar V_O
// expansion (sim/two_exp_crossing.hpp). The live crossing of the current
// segment can still be cancelled by a later input; crossings that precede
// the effective time of an input are physically decided and move to the
// committed FIFO. The channels keep only their mode bookkeeping (which
// mode an input selects, when it takes effect) and call switch_mode().
//
// Layout: sim::Circuit stores channels by value in per-kind arrays, so the
// waveform holds only per-event state -- the snapshot, the expansion's
// amplitudes, the live crossing and the mode key packed with the flags.
// Rates, threshold, horizon and mode entries are read through the shared
// tables, whose owning handle comes last.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/gate_mode_tables.hpp"
#include "sim/channel.hpp"
#include "sim/two_exp_crossing.hpp"
#include "util/error.hpp"
#include "wire/wire_tables.hpp"

namespace charlie::sim {

/// FIFO of committed output events (crossings that can no longer be
/// cancelled). Almost always empty, so unlike a std::deque it
/// allocates nothing until the first push; a drained queue rewinds and
/// keeps its capacity.
class CommittedEvents {
 public:
  bool empty() const { return head_ == events_.size(); }
  const PendingEvent& front() const { return events_[head_]; }
  void push(const PendingEvent& event) { events_.push_back(event); }
  void pop() {
    if (++head_ == events_.size()) clear();
  }
  void clear() {
    events_.clear();
    head_ = 0;
  }

 private:
  std::vector<PendingEvent> events_;
  std::size_t head_ = 0;
};

/// Mode-table entry of a gate's input state.
inline const core::ModeTable& mode_entry(const core::GateModeTables& tables,
                                         unsigned mode) {
  return tables.state_table(mode);
}

/// Mode-table entry of a wire's drive state (0 = low, 1 = high).
inline const core::ModeTable& mode_entry(const wire::WireModeTables& tables,
                                         unsigned mode) {
  return tables.drive_table(mode != 0);
}

template <typename Tables>
class ModeWaveform {
 public:
  explicit ModeWaveform(std::shared_ptr<const Tables> tables)
      : tables_(tables.get()), owner_(std::move(tables)) {
    CHARLIE_ASSERT(owner_ != nullptr);
  }

  const Tables& tables() const { return *tables_; }
  const std::shared_ptr<const Tables>& owner() const { return owner_; }
  /// Swap the tables (same mode set; only between runs).
  void rebind(std::shared_ptr<const Tables> tables) {
    tables_ = tables.get();
    owner_ = std::move(tables);
  }

  unsigned mode() const { return mode_; }
  double t_ref() const { return t_ref_; }
  bool output() const { return output_; }
  const core::ModeTable& mode_table() const {
    return mode_entry(*tables_, mode_);
  }

  /// Settle at `x0` in `mode` at t0 with output `output`; nothing pending.
  void reset(double t0, unsigned mode, const ode::Vec2& x0, bool output) {
    mode_ = mode;
    t_ref_ = t0;
    x_ref_ = x0;
    output_ = output;
    refresh_scalar();
    committed_.clear();
    has_live_ = false;
  }

  /// Analog state at t >= the segment start.
  ode::Vec2 state_at(double t) const {
    CHARLIE_ASSERT(t >= t_ref_ - 1e-18);
    if (t <= t_ref_) return x_ref_;
    const double tau = t - t_ref_;
    const core::ModeTable& mt = mode_table();
    if (mt.spectral_valid) {
      const ode::Vec2 dev = x_ref_ - mt.xp;
      return mt.xp + std::exp(mt.l1 * tau) * (mt.s1 * dev) +
             std::exp(mt.l2 * tau) * (mt.s2 * dev);
    }
    return mt.ode.state_at(tau, x_ref_);
  }

  std::optional<PendingEvent> pending() const {
    if (!committed_.empty()) return committed_.front();
    if (!has_live_) return std::nullopt;
    return PendingEvent{live_t_, live_value_};
  }

  /// An input takes effect at te: a live crossing at or before te has
  /// physically happened and can no longer be cancelled, so it moves to
  /// the committed FIFO with any further crossings of the current mode up
  /// to te (on_fire would have found them one at a time). The live
  /// crossing is dropped either way.
  void commit_through(double te) {
    if (has_live_ && live_t_ <= te) {
      committed_.push({live_t_, live_value_});
      double from = live_t_ + 1e-18;
      while (true) {
        const auto extra = next_crossing(from);
        if (!extra.has_value() || extra->t > te) break;
        committed_.push(*extra);
        from = extra->t + 1e-18;
      }
    }
    has_live_ = false;
  }

  /// Start a segment in `mode` at te from state `x` (analog handoff: the
  /// state carries over continuously) and look for its first crossing.
  void switch_mode(double te, const ode::Vec2& x, unsigned mode) {
    x_ref_ = x;
    t_ref_ = te;
    mode_ = mode;
    refresh_scalar();
    set_live(next_crossing(te));
  }

  /// The pending event fired; `channel` names the channel in the desync
  /// assertion. The waveform may cross again within the same mode, so the
  /// search continues just past a fired live crossing.
  void fire(const PendingEvent& fired, const char* channel) {
    output_ = fired.value;
    // Desync between the engine's queue and the channel would silently
    // corrupt output traces; fail loudly instead.
    if (!committed_.empty()) {
      const PendingEvent& front = committed_.front();
      CHARLIE_ASSERT_MSG(front.t == fired.t && front.value == fired.value,
                         channel);
      committed_.pop();
      return;
    }
    CHARLIE_ASSERT(has_live_);
    CHARLIE_ASSERT_MSG(live_t_ == fired.t && live_value_ == fired.value,
                       channel);
    set_live(next_crossing(fired.t + 1e-18));
  }

 private:
  /// The scalar expansion of V_O on the segment: amplitudes here, rates
  /// and validity in the mode entry.
  TwoExpVo scalar() const {
    const core::ModeTable& mt = mode_table();
    return {mt.scalar_valid, vo_d_, vo_a1_, mt.l1, vo_a2_, mt.l2};
  }

  void refresh_scalar() {
    const TwoExpVo vo = two_exp_expand(mode_table(), x_ref_);
    vo_d_ = vo.d;
    vo_a1_ = vo.a1;
    vo_a2_ = vo.a2;
  }

  void set_live(const std::optional<PendingEvent>& crossing) {
    has_live_ = crossing.has_value();
    if (has_live_) {
      live_t_ = crossing->t;
      live_value_ = crossing->value;
    }
  }

  std::optional<PendingEvent> next_crossing(double t_from) const {
    const TwoExpVo vo = scalar();
    if (!vo.valid) {
      // Defective/complex spectrum: the generic scan.
      const auto crossing = scan_vo_crossing(
          mode_table(), tables_->vth(), t_from, tables_->horizon(),
          [this](double t) { return state_at(t).y; });
      if (!crossing.has_value()) return std::nullopt;
      return PendingEvent{crossing->t, crossing->rising};
    }
    const double tau0 = std::max(t_from - t_ref_, 0.0);
    const auto crossing =
        two_exp_next_crossing(vo, tables_->vth(), tau0, tables_->horizon());
    if (!crossing.has_value()) return std::nullopt;
    return PendingEvent{t_ref_ + crossing->tau, crossing->rising};
  }

  const Tables* tables_;  // owner_, unowned view
  double t_ref_ = 0.0;    // time of the state snapshot
  ode::Vec2 x_ref_{};     // analog state at t_ref_
  double vo_d_ = 0.0;     // amplitudes of scalar()
  double vo_a1_ = 0.0;
  double vo_a2_ = 0.0;
  double live_t_ = 0.0;   // the live crossing, when has_live_
  unsigned mode_ = 0;     // the current mode's key in the tables
  bool output_ = false;   // committed output value
  bool has_live_ = false;
  bool live_value_ = false;
  CommittedEvents committed_;  // storage cold; pending() reads the header
  std::shared_ptr<const Tables> owner_;
};

}  // namespace charlie::sim

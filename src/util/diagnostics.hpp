// Thread-local numerical-guard and fallback telemetry.
//
// The hybrid model's documented degradation paths -- Newton handing a
// crossing to Brent, a defective spectrum forcing the generic scan, an
// isfinite guard tripping on a non-finite state, a fit swallowing a
// ConvergenceError as an infeasible-corner penalty -- are silent by design:
// the run keeps going. RunCounters makes them countable without making
// them chatty. Guard sites bump the executing thread's counters (no
// atomics, no locks, nothing shared, safe under any thread pool); a
// simulation session (sim::SimSession) snapshots them around each of its
// calls and adds up the differences, so a per-run record costs two struct
// copies per call, whichever thread runs it.
#pragma once

namespace charlie::util {

struct RunCounters {
  /// Newton failed to converge on a two-exponential crossing and the
  /// bracketed Brent fallback finished the solve.
  long newton_brent_fallbacks = 0;
  /// A defective/complex mode spectrum routed a crossing search through the
  /// generic sampling scan instead of the scalar expansion.
  long scan_fallbacks = 0;
  /// An isfinite guard tripped (non-finite mode-table derivation, channel
  /// state, or crossing time).
  long nonfinite_guard_trips = 0;
  /// A parameter fit swallowed a ConvergenceError as an infeasible-corner
  /// penalty evaluation.
  long fit_fallbacks = 0;

  /// Counters of the calling thread. Guard sites increment fields directly:
  /// `RunCounters::local().scan_fallbacks++`.
  static RunCounters& local();

  RunCounters operator-(const RunCounters& other) const;
  RunCounters& operator+=(const RunCounters& other);
  bool any() const {
    return newton_brent_fallbacks != 0 || scan_fallbacks != 0 ||
           nonfinite_guard_trips != 0 || fit_fallbacks != 0;
  }
};

}  // namespace charlie::util

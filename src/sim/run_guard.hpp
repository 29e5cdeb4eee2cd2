// Per-run execution budgets and structured failure status.
//
// A production engine ingesting arbitrary synthesized netlists and
// week-long Monte-Carlo batches cannot let one runaway run (oscillation,
// non-converging solve, corrupt input) hang or abort the whole job. The
// types here give every run a budget and a structured outcome:
//
//   RunBudget      -- event-count ceiling, wall-clock deadline, cooperative
//                     cancellation token, all optional.
//   RunStatus      -- ok / budget_exhausted / deadline_exceeded / cancelled
//                     / failed. Anything but kOk means the run terminated
//                     early; its traces are a valid prefix of the full run.
//   RunDiagnostics -- status, event count, horizon reached, the numerical
//                     guard/fallback counters (util::RunCounters) the run's
//                     sessions added up, and the captured error text for
//                     kFailed.
//   RunGuard       -- the run's supervisor, which its sessions poll in
//                     their event loops: one wall clock and one event
//                     count for every session of the run.
//
// Determinism: the event-count budget is checked against the engine's own
// deterministic event counter, so a budget-terminated run stops at the
// same event and produces bit-identical partial traces on every host and
// thread count. Wall-clock deadlines and cancellation are inherently
// host-dependent; they trade determinism for liveness (docs/robustness.md).
#pragma once

#include <atomic>
#include <chrono>
#include <string>

#include "util/diagnostics.hpp"

namespace charlie::sim {

enum class RunStatus {
  kOk,               // ran to the requested horizon
  kBudgetExhausted,  // event-count budget hit (deterministic cut)
  kDeadlineExceeded, // wall-clock deadline hit
  kCancelled,        // cooperative cancellation token observed
  kFailed,           // an exception was captured into the result
};

const char* to_string(RunStatus status);

struct RunBudget {
  /// Engine events (stimulus + gate firings) the run may process;
  /// 0 = unlimited.
  long max_events = 0;
  /// Wall-clock seconds the run may consume; 0 = unlimited.
  double max_wall_seconds = 0.0;
  /// Cooperative cancellation: the run terminates with kCancelled soon
  /// after the pointee becomes true. May be shared by many runs. The
  /// pointee must outlive every run holding the pointer.
  const std::atomic<bool>* cancel = nullptr;
  /// Events between wall-clock/cancellation polls (the event-count ceiling
  /// itself is checked on every event).
  long check_interval = 512;

  bool enabled() const {
    return max_events > 0 || max_wall_seconds > 0.0 || cancel != nullptr;
  }
};

struct RunDiagnostics {
  RunStatus status = RunStatus::kOk;
  long n_events = 0;          // events processed before termination
  double t_horizon = 0.0;     // simulated time actually reached
  /// Guard/fallback counters consumed by this run: the util::RunCounters
  /// increments made inside its sessions' calls.
  util::RunCounters counters;
  /// what() of the captured exception; empty unless status == kFailed.
  std::string error;

  /// One-line printable summary, e.g.
  /// "ok: 412 events, 2 newton->brent fallbacks".
  std::string summary() const;
};

/// Budget supervisor for one run. Construction stamps the wall clock: the
/// run starts. check() is the per-event poll of the run's sessions; the
/// run's diagnostics come from its sessions (SimSession::add_to).
class RunGuard {
 public:
  explicit RunGuard(const RunBudget& budget);

  /// False when the budget sets no limit: sessions then never poll.
  bool enabled() const { return budget_.enabled(); }

  /// Returns kOk while the run may continue, else the tripped status.
  /// `n_events` counts the polling session's events; the guard adds those
  /// of the sessions carried before it. Cheap: the event ceiling is one
  /// compare; the wall clock and the cancellation token are polled every
  /// `check_interval` events.
  RunStatus check(long n_events) {
    n_events += carried_;
    if (budget_.max_events > 0 && n_events >= budget_.max_events) {
      return RunStatus::kBudgetExhausted;
    }
    if (n_events >= next_poll_) return poll(n_events);
    return RunStatus::kOk;
  }

  /// A session of the run finished with `n_events` events: the next
  /// session's polls count on from the run's total.
  void carry(long n_events) { carried_ += n_events; }

 private:
  RunStatus poll(long n_events);

  RunBudget budget_;
  std::chrono::steady_clock::time_point t_start_;
  long next_poll_ = 0;
  long carried_ = 0;  // events of the sessions that finished before
};

}  // namespace charlie::sim

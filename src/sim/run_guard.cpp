#include "sim/run_guard.hpp"

#include "util/error.hpp"

namespace charlie::sim {

const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kBudgetExhausted:
      return "budget_exhausted";
    case RunStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case RunStatus::kCancelled:
      return "cancelled";
    case RunStatus::kFailed:
      return "failed";
  }
  CHARLIE_ASSERT_MSG(false, "invalid run status");
  return "?";
}

std::string RunDiagnostics::summary() const {
  std::string s = to_string(status);
  s += ": " + std::to_string(n_events) + " events";
  if (counters.newton_brent_fallbacks > 0) {
    s += ", " + std::to_string(counters.newton_brent_fallbacks) +
         " newton->brent fallbacks";
  }
  if (counters.scan_fallbacks > 0) {
    s += ", " + std::to_string(counters.scan_fallbacks) + " scan fallbacks";
  }
  if (counters.nonfinite_guard_trips > 0) {
    s += ", " + std::to_string(counters.nonfinite_guard_trips) +
         " non-finite guard trips";
  }
  if (counters.fit_fallbacks > 0) {
    s += ", " + std::to_string(counters.fit_fallbacks) + " fit fallbacks";
  }
  if (!error.empty()) s += ", error: " + error;
  return s;
}

RunGuard::RunGuard(const RunBudget& budget)
    : budget_(budget),
      t_start_(std::chrono::steady_clock::now()),
      next_poll_(budget.check_interval > 0 ? budget.check_interval : 512) {}

RunStatus RunGuard::poll(long n_events) {
  next_poll_ =
      n_events + (budget_.check_interval > 0 ? budget_.check_interval : 512);
  if (budget_.cancel != nullptr &&
      budget_.cancel->load(std::memory_order_relaxed)) {
    return RunStatus::kCancelled;
  }
  if (budget_.max_wall_seconds > 0.0) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t_start_;
    if (elapsed.count() >= budget_.max_wall_seconds) {
      return RunStatus::kDeadlineExceeded;
    }
  }
  return RunStatus::kOk;
}

}  // namespace charlie::sim

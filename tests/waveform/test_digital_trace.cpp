#include "waveform/digital_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace charlie::waveform {
namespace {

TEST(DigitalTrace, ValueFollowsTransitions) {
  const DigitalTrace t(false, {1.0, 2.0, 3.0});
  EXPECT_FALSE(t.value_at(0.5));
  EXPECT_TRUE(t.value_at(1.0));  // effective at its own timestamp
  EXPECT_TRUE(t.value_at(1.5));
  EXPECT_FALSE(t.value_at(2.5));
  EXPECT_TRUE(t.value_at(10.0));
  EXPECT_TRUE(t.final_value());
}

TEST(DigitalTrace, InitialHighTrace) {
  const DigitalTrace t(true, {5.0});
  EXPECT_TRUE(t.value_at(0.0));
  EXPECT_FALSE(t.value_at(6.0));
  EXPECT_FALSE(t.final_value());
}

TEST(DigitalTrace, IsRisingAlternates) {
  const DigitalTrace t(false, {1.0, 2.0, 3.0});
  EXPECT_TRUE(t.is_rising(0));
  EXPECT_FALSE(t.is_rising(1));
  EXPECT_TRUE(t.is_rising(2));
  const DigitalTrace u(true, {1.0, 2.0});
  EXPECT_FALSE(u.is_rising(0));
  EXPECT_TRUE(u.is_rising(1));
}

TEST(DigitalTrace, OrderingEnforced) {
  EXPECT_THROW(DigitalTrace(false, {2.0, 1.0}), AssertionError);
  DigitalTrace t(false, {1.0});
  EXPECT_THROW(t.append_transition(0.5), AssertionError);
  EXPECT_THROW(t.append_transition(1.0), AssertionError);
}

TEST(DigitalTrace, WithoutShortPulsesDropsPairs) {
  // Pulse 1.0..1.05 is short; 3.0..5.0 is wide.
  const DigitalTrace t(false, {1.0, 1.05, 3.0, 5.0});
  const DigitalTrace f = t.without_short_pulses(0.2);
  ASSERT_EQ(f.n_transitions(), 2u);
  EXPECT_DOUBLE_EQ(f.transitions()[0], 3.0);
  EXPECT_DOUBLE_EQ(f.transitions()[1], 5.0);
}

TEST(DigitalTrace, ShortPulseCancellationCascades) {
  // Removing the middle pair merges neighbours into a new short pulse.
  const DigitalTrace t(false, {1.0, 1.5, 1.6, 2.0});
  // gaps: 0.5, 0.1, 0.4. Dropping (1.5,1.6) leaves (1.0, 2.0): gap 1.0 ok.
  const DigitalTrace f = t.without_short_pulses(0.3);
  ASSERT_EQ(f.n_transitions(), 2u);
  EXPECT_DOUBLE_EQ(f.transitions()[0], 1.0);
  EXPECT_DOUBLE_EQ(f.transitions()[1], 2.0);
  // With a wider filter the merged pulse dies too.
  const DigitalTrace g = t.without_short_pulses(1.5);
  EXPECT_EQ(g.n_transitions(), 0u);
}

TEST(DigitalTrace, WindowRestriction) {
  const DigitalTrace t(false, {1.0, 2.0, 3.0, 4.0});
  const DigitalTrace w = t.window(1.5, 3.5);
  EXPECT_TRUE(w.initial_value());  // value at 1.5
  ASSERT_EQ(w.n_transitions(), 2u);
  EXPECT_DOUBLE_EQ(w.transitions()[0], 2.0);
  EXPECT_DOUBLE_EQ(w.transitions()[1], 3.0);
}

TEST(DigitalTrace, EmptyTraceBasics) {
  const DigitalTrace t;
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.value_at(100.0));
  EXPECT_FALSE(t.final_value());
  EXPECT_EQ(t.without_short_pulses(1.0).n_transitions(), 0u);
}

// The merge's contract, computed the obvious way: every transition with
// its trace index and new value, sorted by (t, index).
std::vector<IndexedTransition> sorted_reference(
    const std::vector<DigitalTrace>& traces) {
  std::vector<IndexedTransition> all;
  for (std::size_t k = 0; k < traces.size(); ++k) {
    for (std::size_t i = 0; i < traces[k].n_transitions(); ++i) {
      all.push_back({traces[k].transitions()[i],
                     static_cast<std::uint32_t>(k), traces[k].is_rising(i)});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const IndexedTransition& a, const IndexedTransition& b) {
              return a.t < b.t || (a.t == b.t && a.source < b.source);
            });
  return all;
}

// The traces' transitions the way a session pulls them: one run per
// non-empty trace, the runs in trace order, and the run bounds.
std::vector<IndexedTransition> concatenated_runs(
    const std::vector<DigitalTrace>& traces, std::vector<std::size_t>& bounds) {
  std::vector<IndexedTransition> items;
  bounds.assign(1, 0);
  for (std::size_t k = 0; k < traces.size(); ++k) {
    for (std::size_t i = 0; i < traces[k].n_transitions(); ++i) {
      items.push_back({traces[k].transitions()[i],
                       static_cast<std::uint32_t>(k), traces[k].is_rising(i)});
    }
    if (items.size() > bounds.back()) bounds.push_back(items.size());
  }
  return items;
}

void expect_merge_matches_sort(const std::vector<DigitalTrace>& traces,
                               const char* label) {
  std::vector<std::size_t> bounds;
  std::vector<IndexedTransition> merged = concatenated_runs(traces, bounds);
  // Stale content in the spare buffer must not survive the merge.
  std::vector<IndexedTransition> spare(7, IndexedTransition{-1.0, 99, true});
  merge_transitions(merged, bounds, spare);
  const std::vector<IndexedTransition> expected = sorted_reference(traces);
  ASSERT_EQ(merged.size(), expected.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(merged[i].t, expected[i].t) << label << " element " << i;
    EXPECT_EQ(merged[i].source, expected[i].source) << label << " element "
                                                    << i;
    EXPECT_EQ(merged[i].value, expected[i].value) << label << " element "
                                                  << i;
  }
}

// `n` traces of up to `max_len` transitions on a grid of `slots` instants,
// so equal times across traces are common; every fourth trace starts high.
std::vector<DigitalTrace> grid_traces(std::size_t n, std::size_t max_len,
                                      std::int64_t slots, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<DigitalTrace> traces;
  for (std::size_t k = 0; k < n; ++k) {
    DigitalTrace trace(k % 4 == 3, {});
    const auto len = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
    std::int64_t slot = 0;
    for (std::size_t i = 0; i < len && slot < slots; ++i) {
      slot += rng.uniform_int(1, 3);
      trace.append_transition(static_cast<double>(slot) * 1e-12);
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

TEST(MergeTransitions, MatchesASortByTimeThenTraceIndex) {
  expect_merge_matches_sort({}, "no traces");
  expect_merge_matches_sort({DigitalTrace(), DigitalTrace(true, {})},
                            "empty traces only");
  expect_merge_matches_sort({DigitalTrace(true, {1.0, 2.0, 5.0})},
                            "single trace");
  expect_merge_matches_sort(
      {DigitalTrace(false, {3.0}), DigitalTrace(true, {1.0}),
       DigitalTrace(false, {3.0}), DigitalTrace(false, {2.0}),
       DigitalTrace(true, {1.0})},
      "runs of one transition, tied across runs");
  expect_merge_matches_sort(
      {DigitalTrace(), DigitalTrace(false, {1.0, 3.0}), DigitalTrace(),
       DigitalTrace(true, {2.0}), DigitalTrace()},
      "empty traces around non-empty ones");
  // Every trace switches at the same instants: each instant is a tie
  // across all of them, broken by trace index.
  std::vector<DigitalTrace> same;
  for (int k = 0; k < 9; ++k) {
    same.emplace_back(k % 2 == 1, std::vector<double>{1.0, 2.0, 4.0});
  }
  expect_merge_matches_sort(same, "equal times on every trace");
  // 2, 3, 5, 8, 36 and 257 traces cover even and odd run counts at every
  // pass, including an odd run out on the last one.
  for (const std::size_t n : {2u, 3u, 5u, 8u, 36u, 257u}) {
    expect_merge_matches_sort(grid_traces(n, 6, 40, n), "short grid traces");
  }
  expect_merge_matches_sort(grid_traces(36, 400, 1200, 1), "long traces");
}

TEST(MergeTransitions, OrderIsStrictAcrossTies) {
  const std::vector<DigitalTrace> traces{DigitalTrace(false, {2.0, 3.0}),
                                         DigitalTrace(false, {1.0, 2.0}),
                                         DigitalTrace(true, {2.0})};
  std::vector<std::size_t> bounds;
  std::vector<IndexedTransition> merged = concatenated_runs(traces, bounds);
  std::vector<IndexedTransition> spare;
  merge_transitions(merged, bounds, spare);
  ASSERT_EQ(merged.size(), 5u);
  const double times[] = {1.0, 2.0, 2.0, 2.0, 3.0};
  const std::uint32_t sources[] = {1, 0, 1, 2, 0};
  const bool values[] = {true, true, false, false, false};
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].t, times[i]) << i;
    EXPECT_EQ(merged[i].source, sources[i]) << i;
    EXPECT_EQ(merged[i].value, values[i]) << i;
    if (i > 0) {
      EXPECT_TRUE(precedes(merged[i - 1], merged[i])) << i;
    }
  }
}

}  // namespace
}  // namespace charlie::waveform

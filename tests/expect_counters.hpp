// Table-driven report comparison for the equivalence tests: two reports
// must agree on every counter in EngineReport::counters() except the ones
// a test names, each with the reason it may legitimately differ. A counter
// added to the table is compared by every such test automatically.
#pragma once

#include <gtest/gtest.h>

#include <initializer_list>
#include <string_view>

#include "replay/engine.hpp"

namespace ldp::replay {

/// A counter a comparison skips, and why it may differ between the runs.
struct Excluded {
  std::string_view name;  ///< table name, e.g. "max_in_flight"
  std::string_view reason;
};

/// How deep a queue got and how many queries were in flight at once depend
/// on thread and response timing, not on the scenario: an untimed run
/// floods the pipeline, and under load a slow answer overlaps the next
/// query even in a timed one.
inline constexpr Excluded kQueuePeakTiming{
    "queue_hwm", "queue depth depends on thread timing"};
inline constexpr Excluded kInFlightPeakTiming{
    "max_in_flight", "in-flight peak depends on response timing"};

/// Peaks are per queue and per querier: spreading the sources over more
/// querier threads spreads the records over more queues.
inline constexpr Excluded kQuerierQueuePeak{
    "queue_hwm", "per-queue peak: each querier queues only its slice"};
inline constexpr Excluded kQuerierInFlightPeak{
    "max_in_flight", "per-querier peak: each querier sends only its slice"};

inline void expect_same_counters(const EngineReport& a, const EngineReport& b,
                                 std::initializer_list<Excluded> excluded = {}) {
  size_t skipped = 0;
  metrics::for_each_counter(
      [&](metrics::CounterName name, metrics::MergeRule, const auto& x,
          const auto& y) {
        for (const Excluded& e : excluded) {
          if (name.str() == e.name) {
            ++skipped;
            return;
          }
        }
        EXPECT_EQ(x, y) << "counter " << name.str();
      },
      a, b);
  EXPECT_EQ(skipped, excluded.size()) << "an excluded name is not in the table";
}

}  // namespace ldp::replay

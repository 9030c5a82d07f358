// Figure 6: query timing difference between replayed and original traces.
//
// Replays each trace over UDP on loopback in real time through the full
// Controller → Querier pipeline and reports, per trace, the
// distribution of (actual send offset − trace offset): quartiles, min, max.
// The paper's quartiles sit within ±2.5 ms (±8 ms for the 0.1 s
// inter-arrival case); on shared single-core hardware expect the same
// shape with somewhat wider spread.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "replay/engine.hpp"
#include "server/background.hpp"

using namespace ldp;

namespace {

Summary replay_timing_error(const std::vector<trace::TraceRecord>& trace,
                            const Endpoint& server) {
  replay::EngineConfig cfg;
  cfg.server = server;
  cfg.drain_grace = kSecond / 2;
  replay::QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  if (!report.ok()) {
    std::fprintf(stderr, "replay failed: %s\n", report.error().message.c_str());
    return {};
  }
  bench::print_loss_counters(*report);
  TimeNs t0 = trace.front().timestamp;
  Sampler error_ms;
  // Ignore the first second of replay to skip startup transients (the
  // paper ignores the first 20 s of its hour-long replays).
  for (const auto& sr : report->sends) {
    if (sr.trace_time - t0 < kSecond) continue;
    TimeNs ideal = sr.trace_time - t0;
    TimeNs actual = sr.send_time - report->replay_start;
    error_ms.add(ns_to_ms(actual - ideal));
  }
  return error_ms.summary();
}

}  // namespace

int main() {
  auto bg = server::BackgroundServer::start(bench::root_wildcard_server());
  if (!bg.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", bg.error().message.c_str());
    return 1;
  }

  bench::print_header("Figure 6", "query time error (ms) in replay");
  std::printf("  %-22s %8s %8s %8s %8s %8s\n", "trace", "min", "q1", "median", "q3",
              "max");

  const TimeNs kDuration = 12 * kSecond;

  // Synthetic traces, inter-arrival 0.1 ms .. 1 s (syn-4 .. syn-0).
  struct SynCase {
    const char* label;
    TimeNs gap;
  };
  const SynCase cases[] = {
      {"synthetic 0.1ms", kMilli / 10}, {"synthetic 1ms", kMilli},
      {"synthetic 10ms", 10 * kMilli},  {"synthetic 100ms", 100 * kMilli},
      {"synthetic 1s", kSecond},
  };
  for (const auto& c : cases) {
    synth::FixedTraceSpec spec;
    spec.interarrival_ns = c.gap;
    spec.duration_ns = std::max<TimeNs>(kDuration, 4 * c.gap);
    spec.client_count = 100;
    spec.seed = 6;
    auto trace = synth::make_fixed_trace(spec);
    auto sum = replay_timing_error(trace, (*bg)->endpoint());
    std::printf("  %-22s %8.2f %8.2f %8.2f %8.2f %8.2f\n", c.label, sum.min, sum.q1,
                sum.median, sum.q3, sum.max);
  }

  // B-Root-like trace (scaled rate).
  auto broot = bench::broot16_trace(2000, kDuration, 5000, 66);
  auto sum = replay_timing_error(broot, (*bg)->endpoint());
  std::printf("  %-22s %8.2f %8.2f %8.2f %8.2f %8.2f\n", "B-Root (scaled)", sum.min,
              sum.q1, sum.median, sum.q3, sum.max);

  std::printf(
      "\n  Paper reference: quartiles within +/-2.5 ms for most traces, +/-8 ms at\n"
      "  the 0.1 s inter-arrival, min/max within +/-17 ms.\n");
  return 0;
}

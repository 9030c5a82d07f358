// Figure 6 (distributed): timing fidelity of multi-process replay.
//
// The paper distributes queriers across client hosts and starts them
// together; this bench runs the same experiment on one machine with real
// processes: `--workers 1` vs `--workers 4` replay the same trace through
// forked ldp-worker processes behind the barrier-synchronized start, and we
// compare the (actual send offset − trace offset) distribution against the
// in-process engine's. A third leg SIGKILLs one worker mid-replay and checks
// the respawn-from-checkpoint path reproduces the uninterrupted counters
// exactly.
//
// Numbers land in BENCH_fig6_dist.json (checked in; EXPERIMENTS.md has the
// re-record workflow).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "bench/bench_util.hpp"
#include "replay/dist/controller.hpp"
#include "replay/engine.hpp"
#include "server/background.hpp"
#include "trace/binary.hpp"

#ifndef LDP_WORKER_BIN
#error "LDP_WORKER_BIN must point at the built ldp-worker executable"
#endif

using namespace ldp;

namespace {

Summary timing_error_summary(const replay::EngineReport& report, TimeNs t0) {
  Sampler error_ms;
  // Skip the first second of replay (startup transients; the paper ignores
  // the first 20 s of its hour-long replays).
  for (const auto& sr : report.sends) {
    if (sr.trace_time - t0 < kSecond) continue;
    error_ms.add(ns_to_ms((sr.send_time - report.replay_start) -
                          (sr.trace_time - t0)));
  }
  return error_ms.summary();
}

struct RunResult {
  replay::EngineReport report;
  Summary error;
  TimeNs max_abs_misalign = 0;
  int64_t max_drift = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_fig6_dist.json";

  auto bg = server::BackgroundServer::start(bench::root_wildcard_server());
  if (!bg.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", bg.error().message.c_str());
    return 1;
  }

  // One shared trace: 6 s at 2 ms inter-arrival (3000 queries, 32 sources)
  // — enough load to expose scheduling error, light enough that four timed
  // worker processes coexist on one core.
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 2 * kMilli;
  spec.duration_ns = 6 * kSecond;
  spec.client_count = 32;
  spec.seed = 6;
  auto trace = synth::make_fixed_trace(spec);
  const TimeNs t0 = trace.front().timestamp;

  const std::string trace_path = "/tmp/ldp_fig6_dist_trace.ldpb";
  {
    trace::BinaryWriter w;
    for (const auto& rec : trace) w.add(rec);
    auto saved = w.save(trace_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "trace save failed: %s\n", saved.error().message.c_str());
      return 1;
    }
  }

  auto run_dist = [&](size_t workers, int64_t kill_worker,
                      TimeNs kill_after) -> Result<RunResult> {
    replay::dist::DistConfig cfg;
    cfg.workers = workers;
    cfg.worker_bin = LDP_WORKER_BIN;
    cfg.trace_path = trace_path;
    cfg.server = (*bg)->endpoint();
    cfg.queriers_per_distributor = 2;
    cfg.heartbeat_interval = 100 * kMilli;
    cfg.checkpoint_interval = 250 * kMilli;
    cfg.start_lead = 300 * kMilli;
    cfg.kill_worker = kill_worker;
    cfg.kill_after = kill_after;
    auto dr = LDP_TRY(replay::dist::run_distributed(cfg));
    RunResult out;
    out.error = timing_error_summary(dr.report, t0);
    out.max_abs_misalign = dr.max_abs_misalign;
    out.max_drift = dr.report.max_drift_ns;
    out.report = std::move(dr.report);
    return out;
  };

  bench::print_header("Figure 6 (dist)",
                      "timing fidelity of barrier-synchronized worker processes");

  // In-process baseline: the bound distributed replay has to stay within.
  replay::EngineConfig base_cfg;
  base_cfg.server = (*bg)->endpoint();
  base_cfg.queriers_per_distributor = 2;
  auto base = replay::QueryEngine(base_cfg).replay(trace);
  if (!base.ok()) {
    std::fprintf(stderr, "baseline replay failed: %s\n", base.error().message.c_str());
    return 1;
  }
  Summary base_err = timing_error_summary(*base, t0);
  bench::print_summary_row("in-process baseline", base_err, "ms");

  auto one = run_dist(1, -1, 0);
  if (!one.ok()) {
    std::fprintf(stderr, "workers=1 failed: %s\n", one.error().message.c_str());
    return 1;
  }
  bench::print_summary_row("--workers 1", one->error, "ms");

  auto four = run_dist(4, -1, 0);
  if (!four.ok()) {
    std::fprintf(stderr, "workers=4 failed: %s\n", four.error().message.c_str());
    return 1;
  }
  bench::print_summary_row("--workers 4", four->error, "ms");
  std::printf("  max measured drift: %.3f ms   max start misalign: %.3f ms\n",
              static_cast<double>(four->max_drift) / 1e6,
              static_cast<double>(four->max_abs_misalign) / 1e6);

  // Fidelity bound: a distributed start may not shift or widen the timing
  // error by more than the in-process pipeline's own spread plus a fixed
  // scheduling allowance (single shared core; the paper's multi-host spread
  // is bounded by NTP instead).
  const double allowance_ms = 8.0;
  const double base_iqr = base_err.q3 - base_err.q1;
  auto within = [&](const Summary& s) {
    return std::abs(s.median - base_err.median) <= allowance_ms &&
           (s.q3 - s.q1) <= 4 * base_iqr + allowance_ms;
  };
  const bool fidelity_ok = within(one->error) && within(four->error);
  std::printf("  fidelity within single-process bound: %s\n",
              fidelity_ok ? "yes" : "NO");

  // Crash leg: SIGKILL worker 1 at 1.5 s (past the first checkpoints), let
  // supervision respawn + resume it, and compare against the clean
  // workers=4 run — counters must match exactly.
  auto killed = run_dist(4, 1, 1500 * kMilli);
  if (!killed.ok()) {
    std::fprintf(stderr, "kill/resume run failed: %s\n", killed.error().message.c_str());
    return 1;
  }
  const bool exact =
      killed->report.queries_sent == four->report.queries_sent &&
      killed->report.responses_received == four->report.responses_received;
  std::printf(
      "  kill -9 / respawn / resume: crashes %llu respawned %llu  sent %llu "
      "answered %llu  exact-equality: %s\n",
      static_cast<unsigned long long>(killed->report.worker_crashes),
      static_cast<unsigned long long>(killed->report.workers_respawned),
      static_cast<unsigned long long>(killed->report.queries_sent),
      static_cast<unsigned long long>(killed->report.responses_received),
      exact ? "yes" : "NO");

  auto leg = [&](const char* label, const RunResult& r) {
    bench::JsonObject o;
    o.field("label", std::string(label));
    o.field("queries_sent", r.report.queries_sent);
    o.field("responses_received", r.report.responses_received);
    o.field("median_ms", r.error.median);
    o.field("q1_ms", r.error.q1);
    o.field("q3_ms", r.error.q3);
    o.field("max_ms", r.error.max);
    o.field("max_drift_ms", static_cast<double>(r.max_drift) / 1e6);
    o.field("max_misalign_ms", static_cast<double>(r.max_abs_misalign) / 1e6);
    o.field("worker_crashes", r.report.worker_crashes);
    o.field("workers_respawned", r.report.workers_respawned);
    return o;
  };
  bench::JsonObject baseline;
  baseline.field("label", std::string("in-process"));
  baseline.field("queries_sent", base->queries_sent);
  baseline.field("median_ms", base_err.median);
  baseline.field("q1_ms", base_err.q1);
  baseline.field("q3_ms", base_err.q3);

  bench::JsonObject root;
  root.field("bench", std::string("fig6_dist"));
  root.field("trace_queries", static_cast<uint64_t>(trace.size()));
  root.field("trace_duration_s", ns_to_sec(spec.duration_ns));
  root.field("baseline", baseline);
  root.field("runs", std::vector<bench::JsonObject>{
                         leg("workers=1", *one), leg("workers=4", *four),
                         leg("workers=4 kill+resume", *killed)});
  root.field("fidelity_within_bound", std::string(fidelity_ok ? "yes" : "no"));
  root.field("kill_resume_exact", std::string(exact ? "yes" : "no"));
  if (!bench::write_json_file(json_path, root)) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::printf("  wrote %s\n", json_path);
  return (fidelity_ok && exact) ? 0 : 1;
}

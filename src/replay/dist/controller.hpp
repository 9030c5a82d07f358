// The distributed-replay controller: forks N ldp-worker processes, drives
// the control protocol (protocol.hpp) over one loopback TCP connection per
// worker, and watches them by heartbeat and waitpid. The process is the
// replay's one failure domain: a crashed or wedged worker is killed, reaped
// and respawned from its last checkpoint.
//
// Lifecycle per worker slot:
//
//   Spawned → Helloed → Assigned → Ready → Synced → Started → Reported
//      ▲                                                │
//      └── crash (SIGCHLD reap / stale heartbeat kill) ─┘
//
// A crash decrements the slot's respawn budget and respawns the same index
// with the crashed incarnation's last CHECKPOINT blob in the ASSIGN frame,
// so the new process resumes where the old one snapshot. When the budget is
// exhausted the controller reassigns the slice to itself: the unfinished
// sources replay in-process from the last checkpoint after the surviving
// workers finish (the single-host stand-in for handing the slice to a
// different machine).
//
// Barrier start: once every worker is Ready the controller runs NTP-style
// probe/echo rounds per worker (minimum-RTT sample wins; offset = worker
// stamp − probe midpoint), picks one start instant t₁ = now + lead, and
// STARTs each worker at t₁ + offsetᵢ *in that worker's clock* — so skewed
// workers still fire simultaneously in real time. max |offsetᵢ| lands in
// EngineReport::max_drift_ns.
#pragma once

#include <string>
#include <vector>

#include "replay/engine.hpp"
#include "util/clock.hpp"
#include "util/ip.hpp"

namespace ldp::replay::dist {

struct DistConfig {
  size_t workers = 2;
  std::string worker_bin;  ///< path to the ldp-worker executable
  std::string trace_path;  ///< trace file every worker loads and slices
  Endpoint server;
  bool timed = true;
  /// Querier threads in each worker's engine (EngineConfig's field of the
  /// same name): each worker process is one of the paper's distributors.
  size_t queriers_per_distributor = 2;
  std::string fault_spec;  ///< forwarded to workers verbatim ("" = clean)
  TimeNs heartbeat_interval = 250 * kMilli;
  TimeNs heartbeat_timeout = 5 * kSecond;
  TimeNs checkpoint_interval = kSecond;
  uint32_t respawn_budget = 2;  ///< respawns per worker before reassignment
  /// Apply the measured per-worker clock offset to the start instant. Off
  /// exists for the drift-regression test (how bad is an uncorrected skewed
  /// worker?); production runs always correct.
  bool correct_drift = true;
  uint32_t drift_probes = 7;       ///< probe/echo rounds per worker
  TimeNs start_lead = 500 * kMilli;
  TimeNs barrier_timeout = 30 * kSecond;
  /// Test knobs. worker_skew[i] is handed to worker i as --skew-ns (see
  /// WorkerOptions::skew). kill_worker >= 0 SIGKILLs that worker once,
  /// kill_after past the barrier start — the deterministic stand-in for
  /// `kill -9` in the crash-resume tests and the fig6 dist bench.
  std::vector<TimeNs> worker_skew;
  int64_t kill_worker = -1;
  TimeNs kill_after = kSecond;
};

/// Per-worker outcome for the caller's summary (index-aligned with slots).
struct WorkerStat {
  uint32_t crashes = 0;
  uint32_t respawns = 0;
  TimeNs drift = 0;  ///< measured offset at the initial barrier
  /// |replay_start − barrier start instant| on the controller's clock: the
  /// ground-truth start misalignment (workers share CLOCK_MONOTONIC on one
  /// host, so this is exact). Only workers started by the global barrier
  /// and never respawned report one.
  TimeNs misalign = 0;
  bool have_misalign = false;
  bool fallback = false;  ///< slice finished in-process (budget exhausted)
};

struct DistReport {
  EngineReport report;  ///< merged across workers + fallbacks
  std::vector<WorkerStat> workers;
  TimeNs max_abs_misalign = 0;
  bool any_misalign = false;
};

Result<DistReport> run_distributed(const DistConfig& cfg);

}  // namespace ldp::replay::dist

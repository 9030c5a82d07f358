// The query engine (§2.6, §3): the controller (Reader + Postman) feeds N
// querier threads directly, same-source sticky, so connection reuse can be
// emulated faithfully.
//
// Substitution note (DESIGN.md): the paper's controller → distributor →
// querier tree spans hosts connected by TCP. Here the process is the
// distributor: `ldp-replay` in single-process mode, or each `ldp-worker` of
// a `--workers N` fleet (src/replay/dist/). Inside one process there is one
// fan-out axis, the querier threads, fed through one bounded queue each.
// The query path itself — the part whose timing the evaluation validates —
// uses real UDP/TCP sockets against a real server endpoint, and the §2.6
// scheduling math runs unchanged.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "fault/fault.hpp"
#include "mutate/mutator.hpp"
#include "net/event_loop.hpp"
#include "net/impaired.hpp"
#include "net/socket.hpp"
#include "replay/pending.hpp"
#include "replay/schedule.hpp"
#include "trace/record.hpp"
#include "util/metrics.hpp"
#include "util/queue.hpp"
#include "util/stats.hpp"

namespace ldp::replay {

struct CheckpointState;  // checkpoint.hpp (engine.cpp includes it)

/// What the controller does when a querier queue stays full past the grace
/// period (an overloaded consumer). Block preserves every query at the cost
/// of stalling the controller clock; the shedding policies keep the clock
/// honest and account for what they cost.
enum class OverloadPolicy : uint8_t {
  Block = 0,      ///< wait for room (lossless back-pressure)
  DropOldest = 1, ///< evict the oldest queued record, counted as shed
  ClampRate = 2,  ///< keep blocking but account the stall time
};

struct EngineConfig {
  Endpoint server;            ///< where replayed queries go
  /// Querier threads: the one in-process fan-out. The controller splits the
  /// trace over them by source (sticky, round-robin by first appearance;
  /// see SourceSplit). The process running the engine — ldp-replay, or each
  /// ldp-worker — is the paper's distributor, so there is no distributor
  /// tier inside it.
  size_t queriers_per_distributor = 2;
  /// Must stay 1: replay() refuses any other value. More querier threads
  /// come from queriers_per_distributor; more distributors are ldp-worker
  /// processes (`ldp-replay --workers N`).
  size_t distributors = 1;
  size_t shards = 1;
  /// Timed replay reproduces trace timing; fast mode sends as fast as
  /// possible (§2.6 "replay as fast as possible" option, Figure 9).
  bool timed = true;
  /// Client-side close for idle TCP/TLS connections (§2.6: "queriers also
  /// track open TCP connections ... close them after a pre-set timeout").
  TimeNs tcp_idle_timeout = 20 * kSecond;
  /// Stop waiting for outstanding responses this long after the last send.
  TimeNs drain_grace = 2 * kSecond;
  /// Query lifecycle (PendingTable): a query unanswered after this long is
  /// retransmitted (UDP) or resent (TCP), with the wait doubling per
  /// attempt up to retry_backoff_cap; once max_retries attempts are spent
  /// the entry expires and leaves the pending table, so long replays never
  /// accumulate unanswered state. max_retries = 0 keeps the timeout/expiry
  /// accounting but never retransmits.
  TimeNs query_timeout = kSecond;
  uint32_t max_retries = 2;
  TimeNs retry_backoff_cap = 8 * kSecond;
  /// Re-establish a TCP connection that dropped with unanswered queries
  /// still pending, resending them (each resend consumes one retry from the
  /// affected queries), at most this many times per source; 0 never
  /// reconnects.
  uint32_t max_tcp_reconnects = 2;
  /// Live query mutation (§2.2: "query mutator can run live with query
  /// replay"): applied by the controller to each record before dispatch.
  /// The pipeline must outlive the replay. Records the mutator drops or
  /// cannot decode are skipped and counted.
  const mutate::MutatorPipeline* live_mutator = nullptr;
  /// Network impairment scenario (ldp::fault) applied to the query path:
  /// every per-source socket / connection sends through its own named
  /// FaultStream ("udp:<src>" / "tcp:<src>"), so the impairment pattern a
  /// source sees is a function of the seed alone — identical regardless of
  /// how sources are spread over queriers or controllers. nullopt = clean
  /// link.
  std::optional<fault::FaultSpec> fault;
  /// Overload shedding for the controller→querier queues: how long a push
  /// may wait before the policy kicks in.
  OverloadPolicy overload = OverloadPolicy::Block;
  TimeNs shed_grace = 5 * kMilli;
  /// Deterministic checkpoint/resume: when `checkpoint_path` is set, a
  /// ticker thread gathers every querier's snapshot — per-source trace
  /// positions, fault stream draw positions and in-flight queries — into
  /// one file (atomically, tmp+rename) every checkpoint_interval, which
  /// must be positive, and a final quiescent snapshot is written when the
  /// replay completes. The state is keyed by source and stream name, never
  /// by querier, so a checkpoint resumes at any querier count. `resume`
  /// replays only what the checkpoint hasn't sent and folds the
  /// checkpoint's counters into the final report; it must outlive the
  /// replay() call.
  std::string checkpoint_path;
  TimeNs checkpoint_interval = kSecond;
  const CheckpointState* resume = nullptr;
  /// In-memory checkpoint consumer: called with each periodic snapshot (and
  /// the final quiescent one) in addition to — or instead of — the file at
  /// checkpoint_path. The distributed worker wires this to CHECKPOINT
  /// control frames so the controller always holds a fresh resume point.
  /// Runs on the checkpoint ticker thread; must be cheap and must not call
  /// back into the engine.
  std::function<void(const CheckpointState&)> checkpoint_sink;

  /// True when any checkpoint consumer is configured — queriers then track
  /// snapshot state (per-source sent counts, stream positions, pending).
  bool checkpointing() const {
    return !checkpoint_path.empty() || checkpoint_sink != nullptr;
  }
};

/// One sent query, for the Figures 6-8 fidelity analysis.
struct SendRecord {
  TimeNs trace_time;   ///< original timestamp (ns, trace timeline)
  TimeNs send_time;    ///< actual send (ns, monotonic timeline)
  TimeNs latency = -1; ///< response latency from first send; -1 if unanswered
  IpAddr source;       ///< original trace source (per-source fault analysis)
  uint32_t querier = 0;
  uint32_t retries = 0;  ///< retransmits this query needed
  QueryOutcome outcome = QueryOutcome::Pending;
};

struct EngineReport {
  std::vector<SendRecord> sends;  ///< in send order per querier, merged
  uint64_t queries_sent = 0;
  uint64_t responses_received = 0;
  uint64_t send_errors = 0;
  uint64_t connections_opened = 0;
  uint64_t mutator_dropped = 0;  ///< records removed by the live mutator
  /// Peak number of simultaneously in-flight queries in any one querier;
  /// bounded by the expiry window, so long replays with loss stay flat.
  uint64_t max_in_flight = 0;
  // Overload accounting.
  uint64_t shed_queries = 0;        ///< records dropped by overload shedding
  uint64_t queue_hwm = 0;           ///< deepest any querier queue ever got
  uint64_t clamp_stall_ns = 0;      ///< time ClampRate spent blocked on full queues
  // Distributed-replay accounting (src/replay/dist/): processes, not threads.
  uint64_t worker_crashes = 0;      ///< worker processes that died mid-replay
  uint64_t workers_respawned = 0;   ///< crashes answered with a respawn+resume
  int64_t max_drift_ns = 0;         ///< largest |worker-clock offset| measured
  metrics::LifecycleCounters lifecycle;  ///< timeout/retry/expiry accounting
  fault::ImpairmentCounters impairments; ///< what the fault layer did to us
  metrics::Histogram latency_hist;       ///< answered-query latency (ns)
  TimeNs replay_start = 0;  ///< monotonic t₁
  TimeNs replay_end = 0;

  double duration_s() const { return ns_to_sec(replay_end - replay_start); }
  double rate_qps() const {
    double d = duration_s();
    return d > 0 ? static_cast<double>(queries_sent) / d : 0;
  }
  /// Queries that never produced an answer (timed out, errored, abandoned).
  uint64_t lost() const { return lifecycle.expired; }

  /// The counter table (util/counters.hpp): every counter above, once, with
  /// its merge rule. Merge, checkpoints, REPORT frames, the ldp-replay
  /// summary and the equivalence tests all walk this list.
  static constexpr auto counters() {
    using R = EngineReport;
    using metrics::Counter;
    using metrics::CounterGroup;
    using metrics::MergeRule;
    return std::tuple{
        Counter{"queries_sent", &R::queries_sent},
        Counter{"responses_received", &R::responses_received},
        Counter{"send_errors", &R::send_errors},
        Counter{"connections_opened", &R::connections_opened},
        Counter{"mutator_dropped", &R::mutator_dropped},
        Counter{"max_in_flight", &R::max_in_flight, MergeRule::Max},
        Counter{"shed_queries", &R::shed_queries},
        Counter{"queue_hwm", &R::queue_hwm, MergeRule::Max},
        Counter{"clamp_stall_ns", &R::clamp_stall_ns},
        Counter{"worker_crashes", &R::worker_crashes},
        Counter{"workers_respawned", &R::workers_respawned},
        Counter{"max_drift_ns", &R::max_drift_ns, MergeRule::Max},
        CounterGroup{"lifecycle", &R::lifecycle},
        CounterGroup{"impairments", &R::impairments},
    };
  }

  /// Fold another report (one querier's, the controller's, one worker's)
  /// into this one: counters merge by their table rule,
  /// histograms merge, send records append, and replay_start/replay_end
  /// widen to cover both.
  void merge_from(EngineReport&& other);
};
static_assert(sizeof(EngineReport) ==
                  sizeof(std::vector<SendRecord>) +
                      metrics::counter_bytes<EngineReport>() +
                      sizeof(metrics::Histogram) + 2 * sizeof(TimeNs),
              "every EngineReport counter must be listed in counters(); "
              "a new non-counter member must be added to this sum");

/// The one split of query sources over `n` slots (querier threads, worker
/// processes): sticky — a source keeps its slot for the whole replay, so its
/// connections and fault stream live in one place — and round-robin in
/// order of first appearance, so it is deterministic and worker and
/// controller agree on it.
class SourceSplit {
 public:
  explicit SourceSplit(size_t n) : n_(n) {}
  size_t slot_for(const IpAddr& source) {
    return slots_.emplace(source, slots_.size() % n_).first->second;
  }

 private:
  size_t n_;
  std::unordered_map<IpAddr, size_t, IpAddrHash> slots_;
};

/// A trace's query records split into `n` time-ordered slices by
/// SourceSplit (the worker slices of a `--workers N` replay).
std::vector<std::vector<trace::TraceRecord>> partition_by_source(
    const std::vector<trace::TraceRecord>& trace, size_t n);

/// What overload handling cost the controller: records shed and time spent
/// blocked under ClampRate. Atomic, because the checkpoint ticker reads it
/// while the producer pushes.
struct OverloadLedger {
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> clamp_stall_ns{0};
};

/// Push `rec` into `q` under `policy`. Block waits for room; DropOldest
/// waits `shed_grace`, then evicts the oldest queued record and counts it
/// in `ledger.shed`; ClampRate waits `shed_grace`, then blocks and books the
/// blocked time. Returns Closed, with `rec` intact, only if `q` was closed.
PushResult push_with_policy(BoundedQueue<trace::TraceRecord>& q,
                            trace::TraceRecord& rec, OverloadPolicy policy,
                            TimeNs shed_grace, OverloadLedger& ledger);

class QueryEngine {
 public:
  explicit QueryEngine(EngineConfig config);
  ~QueryEngine();

  /// Replay a time-ordered query trace; blocks until every query is sent
  /// and responses have drained (or the grace period lapses).
  ///
  /// `shared_clock` lets several engines replay slices of one trace on a
  /// common timeline (§2.6 "split input stream to feed multiple
  /// controllers"; ldp-worker uses it for the fleet's barrier start); it
  /// must already be started. Pass nullptr to let this engine latch its own
  /// synchronization point.
  Result<EngineReport> replay(const std::vector<trace::TraceRecord>& trace,
                              const ReplayClock* shared_clock = nullptr);

 private:
  class Querier;

  EngineConfig config_;
};

}  // namespace ldp::replay

// Deterministic checkpoint/resume for the replay engine: a CheckpointState
// snapshots everything a fixed-seed replay needs to continue after the
// process dies — per-source trace positions (how many queries of each
// source are already on the wire), the draw positions of every named fault
// stream, the merged counters/histogram so far, and the in-flight queries
// with their payloads. On resume the engine hands each in-flight query to
// the querier its source maps to before that querier starts, and the
// querier resends it ahead of any fresh record.
//
// The cut is per-querier consistent: each querier publishes its own
// snapshot atomically, so a source's sent-count, stream position and
// pending list always agree with each other. The engine gathers every
// querier's snapshot into one state, keyed by source and stream name and
// never by querier, so it resumes at any querier count. Queries sent after the last
// snapshot but before the kill are re-sent exactly once on resume (their
// sent-counts weren't recorded), so queries_sent totals stay exact; the
// probability-driven impairment counters are draw-order independent, and
// the window faults (blackhole, flap) re-anchor via origin offsets stored
// relative to the replay clock origin.
//
// Files are plain line-oriented text ("ldp-checkpoint v3", the trace
// fingerprint, the counter block declared below, then sent / stream /
// pending records), written atomically (tmp + rename) so a kill
// mid-write leaves the previous snapshot intact.
#pragma once

#include <array>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "replay/engine.hpp"
#include "trace/record.hpp"
#include "util/result.hpp"
#include "util/transport.hpp"

namespace ldp::replay {

/// One in-flight query captured at the cut: enough to resend it on resume
/// (payload + transport + source for socket routing) and to resolve its
/// original send record when the answer finally arrives.
struct CheckpointPending {
  SendRecord record;  ///< outcome Pending; send_time restamped at the resend
  Transport transport = Transport::Udp;
  uint32_t retries_used = 0;
  std::vector<uint8_t> payload;
};

struct CheckpointState {
  uint64_t trace_hash = 0;     ///< fingerprint of the trace being replayed
  uint64_t trace_queries = 0;  ///< query records in that trace
  /// Counters and latency histogram accumulated before the cut. `sends`
  /// is not serialized (per-record fidelity data does not survive a kill;
  /// the resumed report carries only the resumed portion's records).
  EngineReport partial;
  std::vector<CheckpointPending> pending;
  /// Named fault-stream draw positions ("udp:<src>" / "tcp:<src>").
  std::map<std::string, fault::FaultStream::Position> streams;
  /// Cumulative queries sent per original trace source (keys are the
  /// canonical IpAddr string form). The resume path skips this many query
  /// records of each source before sending again.
  std::map<std::string, uint64_t> sent;
};

/// The counter block: how an EngineReport's books cross a restart (this
/// file) or a process boundary (the worker REPORT frame, which embeds the
/// same block). One "counter <name> <value>" line per entry of
/// EngineReport::counters(), then the latency histogram as one
/// "hist <count> <min> <max> <hexsum>" line and a "bucket <index> <value>"
/// line per non-empty bucket. A counter line naming no table entry is an
/// error; a table entry with no line reads as 0.
void write_counter_block(std::ostream& os, const EngineReport& r);

/// Line-at-a-time reader for the counter block; the caller owns the loop
/// over lines and hands each line's key and remaining stream here first.
class CounterBlockReader {
 public:
  /// True when `key` was a counter-block line (and was stored into `r`),
  /// false when it belongs to the caller.
  Result<bool> read(const std::string& key, std::istringstream& ls,
                    EngineReport& r);
  /// Install the histogram gathered from the hist/bucket lines.
  void finish(EngineReport& r) const;

 private:
  std::array<uint64_t, metrics::Histogram::kBuckets> buckets_{};
  uint64_t hist_count_ = 0;
  int64_t hist_min_ = 0;
  int64_t hist_max_ = 0;
  double hist_sum_ = 0;
};

/// Stable fingerprint of a trace (timestamps, sources, payload shapes) so
/// resume refuses to continue a checkpoint against a different trace.
uint64_t trace_fingerprint(const std::vector<trace::TraceRecord>& trace);

/// The checkpoint wire form: the same line-oriented text the file holds.
/// Split out from the file I/O so the distributed control channel can carry
/// snapshots in CHECKPOINT/ASSIGN frames without touching disk.
std::string serialize_checkpoint(const CheckpointState& state);
Result<CheckpointState> parse_checkpoint(const std::string& text);

/// Atomic write: the file at `path` is either the previous snapshot or the
/// new one, never a torn mix.
Result<void> save_checkpoint(const std::string& path,
                             const CheckpointState& state);

Result<CheckpointState> load_checkpoint(const std::string& path);

}  // namespace ldp::replay

// Control protocol for distributed replay (paper §3: controller and
// queriers as separate processes). One TCP connection per worker carries
// length-prefixed frames:
//
//   u32 length (big-endian, = 1 + payload bytes) | u8 type | payload
//
// The DNS data path keeps its 2-byte RFC 1035 framing; the control channel
// needs its own 4-byte prefix because CHECKPOINT/ASSIGN frames carry whole
// engine snapshots that do not fit in 65535 octets. Payloads are the same
// line-oriented text the checkpoint files use — greppable on the wire,
// versioned by the HELLO exchange.
//
// Frame flow (worker lifecycle):
//   worker → HELLO → controller
//   controller → ASSIGN (slice + engine knobs, resume blob on respawn)
//   worker → BARRIER ready; controller ↔ BARRIER probe/echo (drift rounds)
//   controller → START (trace origin + barrier start instant + offset)
//   worker → HEARTBEAT / PROGRESS / CHECKPOINT (periodic, during replay)
//   worker → REPORT (final counters + per-send records), then exits 0.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "replay/engine.hpp"
#include "trace/record.hpp"
#include "util/clock.hpp"
#include "util/ip.hpp"
#include "util/result.hpp"

namespace ldp::replay::dist {

/// Bumped whenever a frame's fields change (2: ASSIGN lost `batched`;
/// 3: ASSIGN lost `distributors`), so a mismatched worker is refused at
/// HELLO instead of misparsing ASSIGN.
inline constexpr uint32_t kProtocolVersion = 3;
/// Upper bound on one frame's payload — a whole checkpoint or report rides
/// in one frame, but a corrupt length prefix must not allocate the moon.
inline constexpr size_t kMaxFramePayload = 64u << 20;

enum class FrameType : uint8_t {
  Hello = 1,
  Assign = 2,
  Barrier = 3,
  Start = 4,
  Heartbeat = 5,
  Progress = 6,
  Checkpoint = 7,
  Report = 8,
};

const char* frame_type_name(FrameType t);

struct Frame {
  FrameType type = FrameType::Hello;
  std::string payload;
};

/// Blocking, EINTR-safe, SIGPIPE-safe frame I/O (net::write_full /
/// net::read_full underneath). send writes the whole frame in one
/// write_full, so the header never waits on Nagle and a delayed ACK for
/// the payload. recv returns nullopt on a clean EOF at a frame boundary.
Result<void> send_frame(int fd, FrameType type, std::string_view payload);
Result<std::optional<Frame>> recv_frame(int fd);

/// Incremental decoder for the controller's poll loop: feed() whatever
/// recv() produced, then drain next() until it returns nullopt.
class FrameReader {
 public:
  void feed(const uint8_t* data, size_t n);
  /// A complete frame, nullopt when more bytes are needed, or an Error on a
  /// malformed prefix (oversized or zero-length frame) — the connection is
  /// then unusable.
  Result<std::optional<Frame>> next();

 private:
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;  // consumed prefix, compacted lazily
};

// --- message payloads ------------------------------------------------------

struct HelloMsg {
  uint32_t version = kProtocolVersion;
  int64_t worker = -1;
  int64_t pid = 0;
};
std::string encode_hello(const HelloMsg& m);
Result<HelloMsg> parse_hello(const std::string& payload);

/// Everything a worker needs to replay its slice: which slice (index/count
/// over replay::partition_by_source of the trace file named on its command
/// line, which the controller's fallback computes too, so the trace never
/// ships over the wire), where to send, and the engine knobs the controller
/// chose. `resume` is
/// empty for a fresh start; on respawn it carries the crashed incarnation's
/// last checkpoint verbatim.
struct AssignMsg {
  size_t index = 0;
  size_t count = 1;
  Endpoint server;
  bool timed = true;
  size_t queriers = 2;  ///< querier threads in the worker's engine (>= 1)
  TimeNs heartbeat_interval = 250 * kMilli;
  TimeNs checkpoint_interval = kSecond;
  std::string fault_spec;  ///< empty = clean link
  std::string resume;      ///< serialized checkpoint, or empty
};
std::string encode_assign(const AssignMsg& m);
Result<AssignMsg> parse_assign(const std::string& payload);

/// BARRIER carries three shapes: the worker's `ready`, then `probe`/`echo`
/// drift-measurement rounds (NTP-style: the controller keeps the echo with
/// the smallest round trip; offset = t_worker − midpoint of the two
/// controller stamps).
struct BarrierMsg {
  enum class Kind : uint8_t { Ready = 0, Probe = 1, Echo = 2 };
  Kind kind = Kind::Ready;
  uint32_t seq = 0;
  TimeNs t_ctrl = 0;    ///< controller clock, stamped on probe send
  TimeNs t_worker = 0;  ///< worker clock, stamped on echo
};
std::string encode_barrier(const BarrierMsg& m);
Result<BarrierMsg> parse_barrier(const std::string& payload);

struct StartMsg {
  TimeNs trace_origin = 0;  ///< t̄₁: first record timestamp of the whole trace
  TimeNs start_at = 0;      ///< t₁ in the *worker's* clock (offset applied)
  TimeNs offset = 0;        ///< the measured drift, for the worker's banner
};
std::string encode_start(const StartMsg& m);
Result<StartMsg> parse_start(const std::string& payload);

struct ProgressMsg {
  uint64_t sent = 0;
  uint64_t received = 0;
};
std::string encode_progress(const ProgressMsg& m);
Result<ProgressMsg> parse_progress(const std::string& payload);

// HEARTBEAT's payload is the worker clock as decimal text (informational);
// CHECKPOINT's payload is a serialized checkpoint verbatim.

/// REPORT: the worker's final EngineReport. Counters and the latency
/// histogram ride in the counter block the checkpoint file also uses
/// (replay/checkpoint.hpp); the timeline and per-send records (the fig6
/// fidelity data) follow, one per line. send_time/trace_time stay absolute
/// — worker and controller share CLOCK_MONOTONIC on one host, which is also
/// what makes replay_start usable as the barrier-alignment ground truth.
std::string encode_report(const EngineReport& r);
Result<EngineReport> parse_report(const std::string& payload);

}  // namespace ldp::replay::dist

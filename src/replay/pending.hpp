// Query-lifecycle tracking for the replay engine (motivated by ZDNS-style
// per-query state machines): every in-flight query lives in a PendingTable
// keyed by a unique sequence number, with a FIFO per DNS id so ID
// collisions stay matchable (a response claims the oldest live query with
// its id) and a deadline heap so timeouts, retransmits, and bounded expiry
// are O(log n) instead of a full-map scan. One table per socket scope: one
// per UDP source socket, one per TCP connection.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <queue>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/clock.hpp"
#include "util/ip.hpp"
#include "util/transport.hpp"

namespace ldp::replay {

/// Terminal (and initial) states of one replayed query.
enum class QueryOutcome : uint8_t {
  Pending = 0,   ///< in flight, no verdict yet
  Answered = 1,  ///< a response matched (possibly after retries)
  TimedOut = 2,  ///< retry budget exhausted without a response
  Errored = 3,   ///< send failed or the connection was lost for good
};

inline const char* outcome_name(QueryOutcome o) {
  switch (o) {
    case QueryOutcome::Pending: return "pending";
    case QueryOutcome::Answered: return "answered";
    case QueryOutcome::TimedOut: return "timed-out";
    case QueryOutcome::Errored: return "errored";
  }
  return "?";
}

/// The DNS ID of a wire-format message: its first two bytes, big-endian.
/// nullopt when the payload is too short to carry a header.
inline std::optional<uint16_t> dns_id_of(std::span<const uint8_t> payload) {
  if (payload.size() < 2) return std::nullopt;
  return static_cast<uint16_t>(payload[0] << 8 | payload[1]);
}

/// One in-flight query. The payload is retained so a timeout can
/// retransmit (UDP) or a reconnect can resend (TCP) without reaching back
/// into the trace. Its outcome resolves into the owning querier's send
/// record at send_index — a query restored from a checkpoint included,
/// since its record is appended to that querier's report before the
/// querier starts.
struct PendingQuery {
  uint64_t key = 0;           ///< unique per entry (issuer-assigned, monotone)
  uint16_t dns_id = 0;
  uint32_t retries_used = 0;  ///< retransmits consumed so far
  size_t send_index = 0;      ///< index into EngineReport::sends
  Transport transport = Transport::Udp;
  bool wire_sent = true;      ///< false while stuck behind a full kernel buffer
  TimeNs first_send = 0;      ///< original send attempt (latency baseline)
  TimeNs deadline = 0;        ///< next timeout
  IpAddr source;              ///< original trace source (socket/stream routing)
  std::vector<uint8_t> payload;
};

/// In-flight query table for one socket scope. Not thread-safe: each
/// querier thread owns its tables outright.
class PendingTable {
 public:
  /// Track a query (or re-track one popped by take_due, with a new
  /// deadline). Returns true when another live entry already carries the
  /// same DNS id — a collision the caller counts for fresh sends.
  bool insert(PendingQuery q);

  /// Claim the oldest live query with this DNS id, removing it. nullopt
  /// when no such query is in flight (late or unsolicited response).
  std::optional<PendingQuery> match(uint16_t dns_id);

  /// Remove and return every entry whose deadline has passed. The caller
  /// decides each query's fate: re-insert (retry) or drop (expiry) — either
  /// way the table itself never grows beyond the live-deadline window.
  std::vector<PendingQuery> take_due(TimeNs now);

  /// Earliest live deadline, or nullopt when empty.
  std::optional<TimeNs> next_deadline();

  /// Remove and return everything (connection close / engine shutdown).
  std::vector<PendingQuery> drain();

  /// Read-only visit of every live entry, in no particular order
  /// (checkpoint snapshots copy in-flight state through this).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [key, pq] : entries_) fn(pq);
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  struct HeapItem {
    TimeNs deadline;
    uint64_t key;
  };
  struct HeapCmp {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      return a.deadline > b.deadline;
    }
  };

  /// Pop heap entries whose (key, deadline) no longer name a live entry —
  /// matched, drained, or re-inserted with a new deadline.
  void prune_heap();
  void erase_from_id_fifo(uint16_t dns_id, uint64_t key);

  std::unordered_map<uint64_t, PendingQuery> entries_;
  std::unordered_map<uint16_t, std::deque<uint64_t>> by_id_;  // FIFO of keys
  std::priority_queue<HeapItem, std::vector<HeapItem>, HeapCmp> heap_;
};

}  // namespace ldp::replay

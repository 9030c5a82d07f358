// Closed-form fault reference for the equivalence tests. FaultStream
// verdicts depend only on (seed, stream name, packet index) plus packet
// time for window impairments, so for a timing-free spec a reference stream
// per source, drawn once per send the engine performs, reproduces the
// engine's impairment counters exactly — no tolerance bands needed — and
// for loss/dup specs the lifecycle counters follow from the same draws.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "replay/engine.hpp"
#include "trace/record.hpp"

namespace ldp {

/// The counters a fast UDP replay of `trace` must report under a
/// timing-free spec with a budget of `max_retries` retransmits, when every
/// delivered query is answered before its deadline. Each source's stream
/// ("udp:<src>") draws once per fresh send, then once per retransmit, round
/// by round: a round retransmits the previous round's link drops. A
/// duplicated query draws two answers, and the second finds no live query.
/// The impairment counters hold for any loss/dup/corrupt spec; the
/// lifecycle ones only without corruption (a corrupted query may go
/// unanswered or come back under another DNS ID).
inline replay::EngineReport reference_counters(
    const fault::FaultSpec& spec, const std::vector<trace::TraceRecord>& trace,
    uint32_t max_retries = 0) {
  std::map<std::string, uint64_t> sends_per_stream;
  for (const auto& rec : trace) ++sends_per_stream["udp:" + rec.src.addr.to_string()];
  replay::EngineReport r;
  r.queries_sent = trace.size();
  for (const auto& [name, fresh] : sends_per_stream) {
    fault::FaultStream ref(spec, name);
    uint64_t offered = fresh;
    for (uint32_t round = 0; offered > 0; ++round) {
      uint64_t dropped = 0;
      for (uint64_t i = 0; i < offered; ++i) {
        fault::Verdict v = ref.next(0);
        if (v.is_drop()) {
          ++dropped;
          continue;
        }
        ++r.responses_received;
        if (round > 0) ++r.lifecycle.answered_after_retry;
        if (v.action == fault::Action::Duplicate) ++r.lifecycle.unmatched_responses;
      }
      r.lifecycle.timeouts += dropped;
      if (round == max_retries) {
        r.lifecycle.expired += dropped;
        break;
      }
      r.lifecycle.retries += dropped;
      offered = dropped;
    }
    r.impairments.merge(ref.counters());
  }
  return r;
}

}  // namespace ldp

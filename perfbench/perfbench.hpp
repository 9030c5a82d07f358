// Shared declarations of the repository benchmark driver.
//
// One binary plays three roles: the orchestrator (`run`), and the two
// children it forks and pins per trial — the server (`--role server`) and
// the replayer (`--role replayer`). Parent and children talk over the
// children's stdin/stdout in one-line "key=value key=value" messages.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "server/auth_server.hpp"
#include "trace/record.hpp"

namespace perfbench {

using ldp::TimeNs;
using ldp::trace::TraceRecord;

// --- key=value lines -------------------------------------------------------

using Kv = std::map<std::string, double>;

/// "verb k=v k=v" with full-precision values.
std::string format_kv(std::string_view verb, const Kv& kv);
/// Parse the k=v pairs of a line produced by format_kv (the verb, the first
/// word, lands in *verb when non-null).
Kv parse_kv(std::string_view line, std::string* verb = nullptr);
/// Value of `key`, or `fallback` when absent.
double kv_get(const Kv& kv, const std::string& key, double fallback = 0);

// --- counting allocator (alloc_count.cpp) ----------------------------------

/// Allocations made by the calling thread since it started.
uint64_t thread_allocs();
/// A known allocation is counted exactly once.
bool alloc_self_check();

// --- process probes ---------------------------------------------------------

/// User+system CPU of the calling process.
TimeNs process_cpu_ns();
/// Current resident set size of the calling process.
uint64_t rss_kb_now();

// --- workloads (workloads.cpp) ----------------------------------------------

enum class Workload { RootMix, IdenticalLadder, RootAllTcp };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// The workload's measured trace, generated from `seed` with the public
/// synth (and, for root_all_tcp, mutate) functions.
std::vector<TraceRecord> make_workload_trace(Workload w, uint64_t seed,
                                             double seconds);

/// A capacity-ladder probe: a fixed-gap trace from 4 sources at `rate_qps`
/// for `length`, carrying the queries (payload and transport) of `pool` in
/// order.
std::vector<TraceRecord> make_probe_trace(const std::vector<TraceRecord>& pool,
                                          double rate_qps, TimeNs length,
                                          uint64_t seed);

/// The zones every run serves: a root zone with wildcarded TLD delegations
/// and a wildcard example.com (the same data as bench::root_wildcard_server).
ldp::server::AuthServer make_auth_server();

/// Check the server's answers for the first queries of `trace`: each
/// decodes as the response to its query, and a template-cache hit is
/// byte-identical to the rendered answer. Empty on success, else the reason.
std::string check_server_outputs(const std::vector<TraceRecord>& trace);

// --- children (children.cpp) -------------------------------------------------

int server_main(bool trace_spans);
int replayer_main(const std::string& trace_path, bool trace_spans);

// --- ledger pass (ledger.cpp) ------------------------------------------------

struct LedgerSpan {
  std::string name;
  TimeNs start = 0;
  TimeNs end = 0;
};

/// Feed the workload's own records through each module's public calls and
/// report ns/op and allocations/op per layer (keys are per-layer metric
/// names). Spans for each call batch are appended to `spans`. An error
/// (wrong output from a layer) is returned in `error`.
Kv run_ledger(const std::vector<TraceRecord>& trace,
              const std::vector<uint8_t>& trace_file_bytes,
              std::vector<LedgerSpan>& spans, std::string& error);

}  // namespace perfbench

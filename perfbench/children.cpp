// The two processes of a trial. Each runs with the CPU affinity the
// orchestrator gave it, reads commands on stdin and answers on stdout.
//
//   server:   -> "ready port=.."      then on "snap" -> "snap ..",
//                                      on "stop" -> "final .." and exit
//   replayer: <- "server port=.."  -> "ready .."
//             <- "go"              -> "result .." and exit  (or <- "quit")
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <unordered_set>

#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "perfbench.hpp"
#include "replay/engine.hpp"
#include "server/frontend.hpp"
#include "trace/load.hpp"

namespace perfbench {

using namespace ldp;

namespace {

void emit(std::string_view verb, const Kv& kv) {
  std::string line = format_kv(verb, kv);
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fflush(stdout);
}

/// Linear-interpolated quantile of an unsorted sample (sorts it).
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Kv server_snapshot(const server::AuthServer& auth, const server::ServerFrontend& fe) {
  const auto& st = auth.stats();
  const auto& conns = fe.connections();
  net::IoCounters io = net::io_counters();
  Kv kv{
      {"cpu_ns", static_cast<double>(process_cpu_ns())},
      {"queries", static_cast<double>(st.queries.load())},
      {"responses", static_cast<double>(st.responses.load())},
      {"io_syscalls", static_cast<double>(io.syscalls())},
      {"io_datagrams", static_cast<double>(io.datagrams())},
      {"accepted", static_cast<double>(conns.accepted)},
      {"peak_established", static_cast<double>(conns.peak_established)},
      {"books_ok", conns.consistent() ? 1.0 : 0.0},
  };
  if (const auto* cache = fe.response_cache()) {
    kv["cache_hits"] = static_cast<double>(cache->stats().hits);
    kv["cache_misses"] = static_cast<double>(cache->stats().misses);
    kv["cache_bypasses"] = static_cast<double>(cache->stats().bypasses);
  }
  return kv;
}

/// The attempt-th port to try for the server: spread over the 10000 ports
/// below the ephemeral range (port 0, the kernel's pick, when that range
/// starts too low to leave room).
uint16_t server_port_candidate(int attempt) {
  std::ifstream range("/proc/sys/net/ipv4/ip_local_port_range");
  int low = 0;
  range >> low;
  if (low < 11024) return 0;
  auto offset = static_cast<int>((static_cast<int64_t>(getpid()) * 7919 + attempt) % 10000);
  return static_cast<uint16_t>(low - 10000 + offset);
}

}  // namespace

int server_main(bool trace_spans) {
  TimeNs t_start = mono_now_ns();
  server::AuthServer auth = make_auth_server();
  net::EventLoop loop;
  // FrontendConfig defaults (batched UDP, 1024-entry template cache) on a
  // port below the kernel's ephemeral range: the replayer binds a client
  // socket per source with SO_REUSEADDR, and one landing on the server's
  // port would receive the queries meant for the server. Ports in use are
  // skipped.
  server::FrontendConfig config;
  Result<std::unique_ptr<server::ServerFrontend>> fe = Err("no port tried");
  for (int attempt = 0; attempt < 50; ++attempt) {
    config.bind.port = server_port_candidate(attempt);
    fe = server::ServerFrontend::start(loop, auth, config);
    if (fe.ok() || fe.error().sys_errno != EADDRINUSE) break;
  }
  if (!fe.ok()) {
    std::fprintf(stderr, "server: %s\n", fe.error().message.c_str());
    return 1;
  }
  server::ServerFrontend& frontend = **fe;
  Kv ready{{"port", static_cast<double>(frontend.endpoint().port)}};
  if (trace_spans) {
    ready["span_start_ns"] = static_cast<double>(t_start);
    ready["span_end_ns"] = static_cast<double>(mono_now_ns());
  }
  emit("ready", ready);

  std::string inbox;
  auto on_command = [&](bool, bool) {
    char buf[256];
    ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
    if (n <= 0) {  // orchestrator gone: shut down quietly
      loop.stop();
      return;
    }
    inbox.append(buf, static_cast<size_t>(n));
    for (size_t nl; (nl = inbox.find('\n')) != std::string::npos;) {
      std::string cmd = inbox.substr(0, nl);
      inbox.erase(0, nl + 1);
      if (cmd == "snap") {
        emit("snap", server_snapshot(auth, frontend));
      } else if (cmd == "stop") {
        Kv final_kv = server_snapshot(auth, frontend);
        frontend.shutdown();
        // The connection books must also close once every connection is
        // torn down.
        final_kv["books_ok"] =
            final_kv["books_ok"] > 0 && frontend.connections().consistent() ? 1 : 0;
        emit("final", final_kv);
        loop.stop();
      }
    }
  };
  if (!loop.add_fd(STDIN_FILENO, net::Interest{true, false}, on_command).ok()) return 1;
  loop.run();
  loop.remove_fd(STDIN_FILENO);
  return 0;
}

int replayer_main(const std::string& trace_path, bool trace_spans) {
  TimeNs t_start = mono_now_ns();
  auto trace = trace::load_trace_file(trace_path);
  if (!trace.ok() || trace->empty()) {
    std::fprintf(stderr, "replayer: cannot load %s\n", trace_path.c_str());
    return 1;
  }
  TimeNs t_loaded = mono_now_ns();

  std::string line;
  if (!std::getline(std::cin, line)) return 1;
  Kv server = parse_kv(line);
  replay::EngineConfig cfg;
  cfg.server = Endpoint{IpAddr{Ip4{127, 0, 0, 1}},
                        static_cast<uint16_t>(kv_get(server, "port"))};
  cfg.distributors = 1;
  cfg.queriers_per_distributor = 1;
  cfg.shards = 1;
  replay::QueryEngine engine(cfg);
  TimeNs t_built = mono_now_ns();
  emit("ready", {});

  if (!std::getline(std::cin, line) || line != "go") return 0;
  TimeNs cpu0 = process_cpu_ns();
  net::IoCounters io0 = net::io_counters();
  TimeNs t_replay0 = mono_now_ns();
  auto report = engine.replay(*trace);
  TimeNs t_replay1 = mono_now_ns();
  TimeNs cpu1 = process_cpu_ns();
  net::IoCounters io1 = net::io_counters();
  if (!report.ok()) {
    std::fprintf(stderr, "replayer: %s\n", report.error().message.c_str());
    return 1;
  }

  uint64_t scheduled = 0, udp_scheduled = 0;
  std::unordered_set<IpAddr, IpAddrHash> sources;
  for (const auto& rec : *trace) {
    if (rec.direction != trace::Direction::Query) continue;
    ++scheduled;
    if (rec.transport == Transport::Udp) ++udp_scheduled;
    sources.insert(rec.src.addr);
  }

  // Schedule: the engine latches trace time trace.front() to real time
  // report.replay_start (§2.6 t̄₁ → t₁); query i is due at
  // replay_start + (t̄ᵢ − t̄₁). Lateness is |send − due|; latency runs from
  // due to answer, so generator lateness counts against it.
  const TimeNs trace_origin = trace->front().timestamp;
  const TimeNs real_origin = report->replay_start;
  std::vector<double> timing_error, latency;
  timing_error.reserve(report->sends.size());
  latency.reserve(report->sends.size());
  bool origin_ok = real_origin > 0;
  TimeNs last_answer = real_origin;
  for (const auto& sr : report->sends) {
    TimeNs due = real_origin + (sr.trace_time - trace_origin);
    if (sr.send_time < real_origin) origin_ok = false;
    timing_error.push_back(static_cast<double>(std::llabs(sr.send_time - due)));
    if (sr.outcome == replay::QueryOutcome::Answered) {
      latency.push_back(static_cast<double>(sr.send_time + sr.latency - due));
      last_answer = std::max(last_answer, sr.send_time + sr.latency);
    }
  }
  double answered_qps = last_answer > real_origin
                            ? static_cast<double>(latency.size()) / ns_to_sec(last_answer - real_origin)
                            : 0;

  const auto& lc = report->lifecycle;
  bool books_ok = report->responses_received + lc.expired == report->queries_sent &&
                  report->queries_sent == scheduled && origin_ok;
  Kv kv{
      {"scheduled", static_cast<double>(scheduled)},
      {"udp_scheduled", static_cast<double>(udp_scheduled)},
      {"sent", static_cast<double>(report->queries_sent)},
      {"answered", static_cast<double>(report->responses_received)},
      {"expired", static_cast<double>(lc.expired)},
      {"send_errors", static_cast<double>(report->send_errors)},
      {"retries", static_cast<double>(lc.retries)},
      {"timeouts", static_cast<double>(lc.timeouts)},
      {"unmatched", static_cast<double>(lc.unmatched_responses)},
      {"deferred", static_cast<double>(lc.deferred_sends)},
      {"queue_hwm", static_cast<double>(report->queue_hwm)},
      {"max_in_flight", static_cast<double>(report->max_in_flight)},
      {"connections", static_cast<double>(report->connections_opened)},
      {"sources", static_cast<double>(sources.size())},
      {"cpu_ns", static_cast<double>(cpu1 - cpu0)},
      {"wall_ns", static_cast<double>(t_replay1 - t_replay0)},
      {"io_syscalls", static_cast<double>(io1.syscalls() - io0.syscalls())},
      {"io_sendmmsg", static_cast<double>(io1.sendmmsg_calls - io0.sendmmsg_calls)},
      {"io_dgrams_sent", static_cast<double>(io1.datagrams_sent - io0.datagrams_sent)},
      {"te_p50_ns", quantile(timing_error, 0.5)},
      {"te_p90_ns", quantile(timing_error, 0.9)},
      {"te_p99_ns", quantile(timing_error, 0.99)},
      {"lat_n", static_cast<double>(latency.size())},
      {"lat_p50_ns", quantile(latency, 0.5)},
      {"lat_p90_ns", quantile(latency, 0.9)},
      {"lat_p99_ns", quantile(latency, 0.99)},
      {"answered_qps", answered_qps},
      {"books_ok", books_ok ? 1.0 : 0.0},
  };
  if (trace_spans) {
    kv["span_load_start_ns"] = static_cast<double>(t_start);
    kv["span_load_end_ns"] = static_cast<double>(t_loaded);
    kv["span_build_end_ns"] = static_cast<double>(t_built);
    kv["span_replay_start_ns"] = static_cast<double>(t_replay0);
    kv["span_replay_end_ns"] = static_cast<double>(t_replay1);
  }
  emit("result", kv);
  return 0;
}

}  // namespace perfbench

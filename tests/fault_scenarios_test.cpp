// Fault-scenario regression suite: fixed-seed impairment scenarios driven
// end-to-end through the real-socket replay engine (UDP and TCP) at one
// and at several querier threads, and the simnet discrete-event runtime —
// asserting exact, reproducible impairment and lifecycle counter outcomes.
//
// The exactness technique: FaultStream verdicts depend only on
// (seed, stream name, packet index) plus packet time for window
// impairments. For loss/dup/corrupt scenarios a reference stream driven
// the same number of times must therefore produce byte-identical counters
// to the one embedded in the engine — no tolerance bands needed.
#include <gtest/gtest.h>

#include <map>

#include "expect_counters.hpp"
#include "fault/fault.hpp"
#include "fault_reference.hpp"
#include "server/background.hpp"
#include "simnet/replay_sim.hpp"
#include "synth/generator.hpp"
#include "zone/parser.hpp"

namespace ldp {
namespace {

using trace::TraceRecord;

server::AuthServer wildcard_server() {
  server::AuthServer s;
  auto z = zone::parse_zone(R"(
$ORIGIN example.com.
$TTL 3600
@ IN SOA ns1 admin 1 7200 900 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.1
* IN A 192.0.2.80
)");
  EXPECT_TRUE(z.ok());
  EXPECT_TRUE(s.default_zones().add(std::move(*z)).ok());
  return s;
}

fault::FaultSpec spec_of(const char* text) {
  auto spec = fault::parse_fault_spec(text);
  EXPECT_TRUE(spec.ok()) << spec.error().message;
  return *spec;
}

std::vector<TraceRecord> fixed_trace(size_t queries, size_t clients,
                                     Transport transport = Transport::Udp) {
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = kMilli / 2;
  spec.duration_ns = static_cast<TimeNs>(queries) * spec.interarrival_ns;
  spec.client_count = clients;
  spec.transport = transport;
  return synth::make_fixed_trace(spec);
}

// ---------------------------------------------------------------------------
// UDP path: exact counter outcomes for a fixed seed.
// ---------------------------------------------------------------------------

// Loss-only, no retries: every impairment drop is exactly one timeout and
// one expired query, and the counts equal the reference stream's.
TEST(FaultScenarios, UdpLossExactCounters) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());
  auto trace = fixed_trace(200, 8);
  fault::FaultSpec spec = spec_of("loss:0.25,seed:42");

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = false;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 0;
  cfg.query_timeout = 300 * kMilli;
  cfg.drain_grace = 5 * kSecond;
  cfg.fault = spec;
  replay::QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  fault::ImpairmentCounters expected = reference_counters(spec, trace).impairments;
  EXPECT_GT(expected.dropped, 0u);
  EXPECT_EQ(report->impairments, expected);
  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_EQ(report->lifecycle.timeouts, expected.dropped);
  EXPECT_EQ(report->lifecycle.expired, expected.dropped);
  EXPECT_EQ(report->lifecycle.retries, 0u);
  EXPECT_EQ(report->responses_received, trace.size() - expected.dropped);
}

// The acceptance criterion: one fixed-seed scenario replayed twice through
// real sockets, and once (twice, in fact) under simnet, yields
// byte-identical impairment accounting — and the two socket runs agree on
// every lifecycle counter.
TEST(FaultScenarios, FixedSeedScenarioByteIdenticalAcrossRunsAndRuntimes) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());
  auto trace = fixed_trace(200, 8);
  fault::FaultSpec spec = spec_of("loss:0.1,dup:0.05,corrupt:0.05,seed:7");

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = false;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 0;  // one draw per query: index-exact determinism
  cfg.query_timeout = 300 * kMilli;
  cfg.drain_grace = 5 * kSecond;
  cfg.fault = spec;

  replay::QueryEngine first(cfg);
  auto run1 = first.replay(trace);
  ASSERT_TRUE(run1.ok()) << run1.error().message;
  replay::QueryEngine second(cfg);
  auto run2 = second.replay(trace);
  ASSERT_TRUE(run2.ok()) << run2.error().message;

  replay::expect_same_counters(
      *run1, *run2, {replay::kQueuePeakTiming, replay::kInFlightPeakTiming});

  // Same scenario under simnet: the virtual-time runtime draws the same
  // per-source streams in the same order, so the impairment accounting is
  // identical to the socket runs' — and trivially identical to itself.
  auto server = wildcard_server();
  simnet::SimReplayConfig sim_cfg;
  sim_cfg.fault = &spec;
  auto sim1 = simnet::simulate_replay(trace, server, sim_cfg);
  auto sim2 = simnet::simulate_replay(trace, server, sim_cfg);
  EXPECT_EQ(sim1.impairments, sim2.impairments);
  EXPECT_EQ(sim1.queries_lost, sim2.queries_lost);
  EXPECT_EQ(sim1.responses, sim2.responses);
  EXPECT_EQ(sim1.impairments, run1->impairments);
  EXPECT_EQ(sim1.queries_lost, run1->impairments.lost());

  // And against the closed-form reference.
  EXPECT_EQ(run1->impairments, reference_counters(spec, trace).impairments);
}

// ---------------------------------------------------------------------------
// TCP path: drops surface as timeouts + retries; flaps as reconnects.
// ---------------------------------------------------------------------------

TEST(FaultScenarios, TcpLossConservationAndRecovery) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());
  auto trace = fixed_trace(60, 4, Transport::Tcp);
  fault::FaultSpec spec = spec_of("loss:0.3,seed:7");

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = false;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 4;
  cfg.query_timeout = 200 * kMilli;
  cfg.retry_backoff_cap = 400 * kMilli;
  cfg.drain_grace = 10 * kSecond;
  cfg.fault = spec;
  replay::QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_GT(report->impairments.lost(), 0u);
  // Conservation: every query is answered or counted lost.
  EXPECT_EQ(report->responses_received + report->lifecycle.expired, trace.size());
  // Every timeout either retried or expired the query.
  EXPECT_EQ(report->lifecycle.timeouts,
            report->lifecycle.retries + report->lifecycle.expired);
  // Retry budget 4 at 30% loss recovers nearly everything.
  EXPECT_GE(report->responses_received, trace.size() * 9 / 10);
  EXPECT_GE(report->lifecycle.answered_after_retry, 1u);
}

// A link flap at t=0 (the flap window starts at the stream origin) maps to
// connection loss on TCP, deterministically exercising reconnect-and-resend.
TEST(FaultScenarios, TcpFlapForcesReconnect) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());
  auto trace = fixed_trace(20, 2, Transport::Tcp);
  // 5 ms outage at the stream origin, next one not until 500 ms — long
  // after the 10 ms timed trace and its retries have drained.
  fault::FaultSpec spec = spec_of("flap:500ms/5ms,seed:3");

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = true;  // spreads sends across the down/up phases of the flap
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 4;
  cfg.query_timeout = 50 * kMilli;
  cfg.drain_grace = 10 * kSecond;
  cfg.fault = spec;
  replay::QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  // The first send of every source hits offset 0 of its stream — inside
  // the down window — so at least one flap drop and one reconnect are
  // guaranteed regardless of scheduling.
  EXPECT_GE(report->impairments.flap_dropped, 1u);
  EXPECT_GE(report->lifecycle.tcp_reconnects, 1u);
  EXPECT_EQ(report->responses_received + report->lifecycle.expired, trace.size());
  // Queries sent after the 5 ms down window find the link up and complete;
  // conservative bound so scheduling jitter can't flake the test.
  EXPECT_GE(report->responses_received, trace.size() / 4);
}

// ---------------------------------------------------------------------------
// slow_client knob: the engine really dribbles bytes, and a hardened
// frontend really ejects the dribbler (the two halves of PR 5 meeting).
// ---------------------------------------------------------------------------

// Every TCP connection is slow (p=1): frames go on the wire one byte per
// drip interval, so no query ever completes — the client starves itself —
// while the server's read deadline detects the stuck partial frame and
// closes each connection. Goodput zero, crashes zero, books balanced on
// both sides.
TEST(FaultScenarios, SlowClientDripStarvesItselfAndHardenedServerEjectsIt) {
  server::FrontendConfig fe;
  fe.limits.read_deadline = 150 * kMilli;
  fe.sweep_interval = 25 * kMilli;
  auto bg = server::BackgroundServer::start(wildcard_server(), fe);
  ASSERT_TRUE(bg.ok());
  auto trace = fixed_trace(8, 2, Transport::Tcp);

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = false;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 0;
  cfg.max_tcp_reconnects = 0;  // a second slow connection proves nothing new
  cfg.query_timeout = 400 * kMilli;
  cfg.drain_grace = 5 * kSecond;
  cfg.fault = spec_of("slow_client:1,drip:25ms,seed:1");
  replay::QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_EQ(report->responses_received, 0u);
  EXPECT_EQ(report->lifecycle.expired, trace.size());

  (*bg)->stop();
  const auto& conns = (*bg)->connections();
  EXPECT_GE(conns.accepted, 2u);  // one connection per source
  EXPECT_GE(conns.deadline_closed, 1u)
      << "read deadline never fired — were any bytes dripped?";
  EXPECT_TRUE(conns.consistent()) << conns.summary();
}

// The knob is TCP-only by construction: a UDP replay under slow_client:1
// is completely unaffected.
TEST(FaultScenarios, SlowClientKnobLeavesUdpUntouched) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());
  auto trace = fixed_trace(40, 4);

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = false;
  cfg.queriers_per_distributor = 1;
  cfg.max_retries = 0;
  cfg.query_timeout = 500 * kMilli;
  cfg.drain_grace = 5 * kSecond;
  cfg.fault = spec_of("slow_client:1,drip:10ms,seed:1");
  replay::QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;

  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_EQ(report->responses_received, trace.size());
}

// ---------------------------------------------------------------------------
// Querier-count equivalence: per-source outcomes are a function of the seed
// alone, not of how sources are split across querier threads.
// ---------------------------------------------------------------------------

struct PerSourceTotals {
  uint64_t sends = 0;
  uint64_t answered = 0;
  uint64_t timed_out = 0;
  uint64_t retries = 0;
  bool operator==(const PerSourceTotals&) const = default;
};

std::map<std::string, PerSourceTotals> per_source(const replay::EngineReport& r) {
  std::map<std::string, PerSourceTotals> out;
  for (const auto& sr : r.sends) {
    auto& t = out[sr.source.to_string()];
    ++t.sends;
    if (sr.outcome == replay::QueryOutcome::Answered) ++t.answered;
    if (sr.outcome == replay::QueryOutcome::TimedOut) ++t.timed_out;
    t.retries += sr.retries;
  }
  return out;
}

TEST(FaultScenarios, QuerierCountsIndependentOfSplit) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());
  auto trace = fixed_trace(200, 8);
  fault::FaultSpec spec = spec_of("loss:0.2,seed:11");

  auto run = [&](size_t queriers) {
    replay::EngineConfig cfg;
    cfg.server = (*bg)->endpoint();
    cfg.timed = false;
    cfg.queriers_per_distributor = queriers;
    cfg.max_retries = 2;
    cfg.query_timeout = 300 * kMilli;
    cfg.retry_backoff_cap = 600 * kMilli;
    cfg.drain_grace = 10 * kSecond;
    cfg.fault = spec;
    return replay::QueryEngine(cfg).replay(trace);
  };

  auto one = run(1);
  auto four = run(4);
  ASSERT_TRUE(one.ok()) << one.error().message;
  ASSERT_TRUE(four.ok()) << four.error().message;

  EXPECT_EQ(one->queries_sent, trace.size());
  // Identical per-source lifecycle outcomes under either partitioning.
  auto totals_one = per_source(*one);
  auto totals_four = per_source(*four);
  ASSERT_EQ(totals_one.size(), totals_four.size());
  for (const auto& [source, totals] : totals_one) {
    auto it = totals_four.find(source);
    ASSERT_NE(it, totals_four.end()) << source;
    EXPECT_EQ(totals.sends, it->second.sends) << source;
    EXPECT_EQ(totals.answered, it->second.answered) << source;
    EXPECT_EQ(totals.timed_out, it->second.timed_out) << source;
    EXPECT_EQ(totals.retries, it->second.retries) << source;
  }
  // And the whole counter table: impairment and lifecycle accounting match.
  replay::expect_same_counters(
      *one, *four, {replay::kQuerierQueuePeak, replay::kQuerierInFlightPeak});
}

}  // namespace
}  // namespace ldp

// End-to-end tests of the distributed query engine over real loopback
// sockets: timing fidelity (the §4.2 claims at small scale), fast mode,
// TCP connection reuse, same-source stickiness, and response matching.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "replay/engine.hpp"
#include "replay/schedule.hpp"
#include "server/background.hpp"
#include "synth/generator.hpp"
#include "zone/parser.hpp"

namespace ldp::replay {
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

TEST(ReplayClockT, DelayMath) {
  ReplayClock clock;
  clock.start(/*trace=*/1000 * kSecond, /*real=*/500 * kSecond);
  // Query 3s into the trace, 1s of real time already burned: wait 2s.
  EXPECT_EQ(clock.delay_for(1003 * kSecond, 501 * kSecond), 2 * kSecond);
  // Input fell behind: negative delay means send immediately.
  EXPECT_LT(clock.delay_for(1001 * kSecond, 503 * kSecond), 0);
  EXPECT_EQ(clock.deadline_for(1003 * kSecond), 503 * kSecond);
}

TEST(QueryEngineT, RepliesReceivedOverUdp) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok()) << bg.error().message;

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 5 * kMilli;
  spec.duration_ns = kSecond / 2;  // 100 queries
  spec.client_count = 10;
  auto trace = synth::make_fixed_trace(spec);

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_EQ(report->responses_received, trace.size());
  EXPECT_EQ(report->send_errors, 0u);
  for (const auto& sr : report->sends) {
    EXPECT_GE(sr.latency, 0) << "unanswered query";
    EXPECT_LT(sr.latency, kSecond);
  }
}

TEST(QueryEngineT, TimingFidelity) {
  // The miniature Figure 6: with 10ms spacing, send-time offsets from the
  // replay origin should track trace offsets within a few ms.
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 10 * kMilli;
  spec.duration_ns = kSecond;
  spec.client_count = 5;
  auto trace = synth::make_fixed_trace(spec);

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->sends.size(), trace.size());

  TimeNs t0_trace = trace.front().timestamp;
  Sampler error_ms;
  for (const auto& sr : report->sends) {
    TimeNs ideal = sr.trace_time - t0_trace;
    TimeNs actual = sr.send_time - report->replay_start;
    error_ms.add(ns_to_ms(actual - ideal));
  }
  auto sum = error_ms.summary();
  // Single-core CI machine: generous but still ms-scale bounds (the paper
  // reports ±8ms quartiles at much higher rates on dedicated hardware).
  EXPECT_GE(sum.min, -1.0) << "sent before schedule";
  EXPECT_LT(sum.q3, 15.0);
  EXPECT_LT(sum.max, 100.0);
}

TEST(QueryEngineT, FastModeIgnoresTraceTiming) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());

  // A 10-second trace replayed in far less wall time.
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 100 * kMilli;
  spec.duration_ns = 10 * kSecond;
  spec.client_count = 4;
  auto trace = synth::make_fixed_trace(spec);

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = false;
  QueryEngine engine(cfg);
  TimeNs start = mono_now_ns();
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_LT(mono_now_ns() - start, 5 * kSecond);
}

TEST(QueryEngineT, TcpConnectionsReusedPerSource) {
  server::FrontendConfig fe_cfg;
  fe_cfg.tcp_idle_timeout = 20 * kSecond;
  auto bg = server::BackgroundServer::start(wildcard_server(), fe_cfg);
  ASSERT_TRUE(bg.ok());

  // 4 distinct sources, 10 queries each, all TCP, bunched in time.
  std::vector<TraceRecord> trace;
  int seq = 0;
  for (int c = 0; c < 4; ++c) {
    IpAddr client{Ip4{10, 0, 0, static_cast<uint8_t>(c + 1)}};
    for (int i = 0; i < 10; ++i) {
      dns::Message q = dns::Message::make_query(
          static_cast<uint16_t>(seq),
          *dns::Name::parse("q" + std::to_string(seq) + ".example.com"),
          dns::RRType::A);
      trace.push_back(trace::make_query_record(seq * 2 * kMilli,
                                               Endpoint{client, 50000},
                                               Endpoint{IpAddr{}, 53}, q,
                                               Transport::Tcp));
      ++seq;
    }
  }

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->queries_sent, 40u);
  EXPECT_EQ(report->responses_received, 40u);
  // Same-source stickiness + reuse: exactly one connection per source.
  EXPECT_EQ(report->connections_opened, 4u);
  (*bg)->stop();
  EXPECT_EQ((*bg)->connections().accepted, 4u);
}

TEST(QueryEngineT, MultipleQueriersPartitionWork) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = kMilli;
  spec.duration_ns = kSecond / 2;
  spec.client_count = 50;
  auto trace = synth::make_fixed_trace(spec);

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.queriers_per_distributor = 4;
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->queries_sent, trace.size());
  EXPECT_EQ(report->responses_received, trace.size());

  // All four queriers participated, numbered 0..3 in one flat pool.
  std::set<uint32_t> queriers;
  for (const auto& sr : report->sends) queriers.insert(sr.querier);
  EXPECT_EQ(queriers, (std::set<uint32_t>{0, 1, 2, 3}));
}

TEST(QueryEngineT, SameSourceAlwaysSameQuerier) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());

  // Two sources interleaved; record which querier handled each source by
  // marking queries with per-source ids.
  std::vector<TraceRecord> trace;
  for (int i = 0; i < 40; ++i) {
    IpAddr client{Ip4{10, 9, 0, static_cast<uint8_t>(1 + (i % 2))}};
    dns::Message q = dns::Message::make_query(
        static_cast<uint16_t>(i), *dns::Name::parse("s.example.com"), dns::RRType::A);
    trace.push_back(trace::make_query_record(i * kMilli, Endpoint{client, 40000},
                                             Endpoint{IpAddr{}, 53}, q));
  }

  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.queriers_per_distributor = 4;
  QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok());

  // Reconstruct source -> querier from the send order: sends alternate by
  // trace construction, and SendRecord keeps the trace time, so match by
  // timestamp parity.
  std::map<int, std::set<uint32_t>> queriers_by_source;
  for (const auto& sr : report->sends) {
    int source = static_cast<int>((sr.trace_time / kMilli) % 2);
    queriers_by_source[source].insert(sr.querier);
  }
  for (const auto& [source, qs] : queriers_by_source) {
    EXPECT_EQ(qs.size(), 1u) << "source " << source << " split across queriers";
  }
}

TEST(QueryEngineT, EmptyTraceRejected) {
  EngineConfig cfg;
  cfg.server = Endpoint{IpAddr{Ip4{127, 0, 0, 1}}, 5300};
  QueryEngine engine(cfg);
  EXPECT_FALSE(engine.replay({}).ok());
}

TEST(QueryEngineT, UnansweredQueriesDrainAfterGrace) {
  // No server: every query goes unanswered; the engine must still return
  // after the grace period with latency = -1 markers.
  EngineConfig cfg;
  cfg.server = Endpoint{IpAddr{Ip4{127, 0, 0, 1}}, 1};  // nothing listens
  cfg.drain_grace = 200 * kMilli;
  QueryEngine engine(cfg);

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 10 * kMilli;
  spec.duration_ns = 100 * kMilli;
  auto trace = synth::make_fixed_trace(spec);

  TimeNs start = mono_now_ns();
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(mono_now_ns() - start, 5 * kSecond);
  EXPECT_EQ(report->responses_received, 0u);
  for (const auto& sr : report->sends) EXPECT_EQ(sr.latency, -1);
}

// The controller feeds its queriers directly: while a replay runs, the
// process holds the controller (this thread), one thread per querier and
// the checkpoint ticker — no distributor or shard threads in between.
TEST(QueryEngineT, ReplayRunsOnlyControllerQueriersAndTicker) {
  auto threads_now = [] {
    size_t n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++n;
    }
    return n;
  };
  // A sanitizer runtime may start a helper thread with the first thread the
  // process creates; start and join one so the baseline includes it.
  std::thread([] {}).join();
  const size_t baseline = threads_now();

  EngineConfig cfg;
  cfg.server = Endpoint{IpAddr{Ip4{127, 0, 0, 1}}, 1};  // nothing listens
  cfg.queriers_per_distributor = 3;
  cfg.max_retries = 0;
  cfg.query_timeout = 50 * kMilli;
  cfg.drain_grace = 100 * kMilli;
  cfg.checkpoint_interval = 20 * kMilli;
  std::atomic<size_t> peak{0};
  cfg.checkpoint_sink = [&](const CheckpointState&) {
    size_t n = threads_now();
    size_t seen = peak.load();
    while (n > seen && !peak.compare_exchange_weak(seen, n)) {
    }
  };

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 5 * kMilli;
  spec.duration_ns = 300 * kMilli;
  spec.client_count = 6;
  auto report = QueryEngine(cfg).replay(synth::make_fixed_trace(spec));
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(peak.load(), baseline + 3u + 1u);  // + queriers + ticker
}

}  // namespace
}  // namespace ldp::replay

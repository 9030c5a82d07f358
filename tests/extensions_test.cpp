// Tests for the paper's stated extension/future-work features implemented
// here: CDN-style answer rotation (§2.3), live mutation during replay
// (§2.2), and DoS attack workloads (§1). Input splitting (§2.6) is EngineConfig::shards, covered
// in shard_test.cpp.
#include <gtest/gtest.h>

#include "replay/engine.hpp"
#include "server/background.hpp"
#include "simnet/replay_sim.hpp"
#include "synth/generator.hpp"
#include "zone/parser.hpp"

namespace ldp {
namespace {

using dns::Message;
using dns::Name;
using dns::RRType;

Name mk(std::string_view s) { return *Name::parse(s); }

// --- CDN answer rotation -----------------------------------------------------

TEST(CdnRotation, SuccessiveQueriesSeeRotatedFirstAnswer) {
  server::ServerConfig cfg;
  cfg.rotate_answers = true;
  server::AuthServer s(cfg);
  auto z = zone::parse_zone(R"(
$ORIGIN cdn.example.
$TTL 60
@ IN SOA ns1 admin 1 2 3 4 60
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.10
www IN A 192.0.2.11
www IN A 192.0.2.12
)");
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(s.default_zones().add(std::move(*z)).ok());

  IpAddr client{Ip4{10, 0, 0, 1}};
  std::set<std::string> first_answers;
  for (int i = 0; i < 6; ++i) {
    Message q = Message::make_query(static_cast<uint16_t>(i), mk("www.cdn.example"),
                                    RRType::A);
    Message r = s.answer(q, client);
    ASSERT_EQ(r.answers.size(), 3u);
    const auto* a = r.answers[0].rdata.get_if<dns::AData>();
    ASSERT_NE(a, nullptr);
    first_answers.insert(a->addr.to_string());
  }
  EXPECT_EQ(first_answers.size(), 3u);  // all three addresses led once
}

TEST(CdnRotation, OffByDefault) {
  server::AuthServer s;
  auto z = zone::parse_zone(R"(
$ORIGIN cdn.example.
$TTL 60
@ IN SOA ns1 admin 1 2 3 4 60
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.10
www IN A 192.0.2.11
)");
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(s.default_zones().add(std::move(*z)).ok());
  IpAddr client{Ip4{10, 0, 0, 1}};
  std::set<std::string> first_answers;
  for (int i = 0; i < 4; ++i) {
    Message q = Message::make_query(static_cast<uint16_t>(i), mk("www.cdn.example"),
                                    RRType::A);
    Message r = s.answer(q, client);
    ASSERT_FALSE(r.answers.empty());
    const auto* a = r.answers[0].rdata.get_if<dns::AData>();
    ASSERT_NE(a, nullptr);
    first_answers.insert(a->addr.to_string());
  }
  EXPECT_EQ(first_answers.size(), 1u);  // stable order
}

// --- attack workloads ---------------------------------------------------------

TEST(AttackTrace, RandomSubdomainShape) {
  synth::AttackTraceSpec spec;
  spec.rate_qps = 5000;
  spec.duration_ns = 2 * kSecond;
  spec.spoofed_sources = 5000;
  spec.seed = 3;
  auto trace = synth::make_attack_trace(spec);
  ASSERT_GT(trace.size(), 8000u);
  ASSERT_LT(trace.size(), 12000u);

  std::set<std::string> qnames;
  for (const auto& rec : trace) {
    auto msg = rec.message();
    ASSERT_TRUE(msg.ok());
    const auto& qname = msg->questions[0].qname;
    EXPECT_TRUE(qname.is_subdomain_of(mk("example.com")));
    qnames.insert(qname.to_string());
  }
  // Water torture: (almost) every qname unique, defeating caches.
  EXPECT_GT(qnames.size(), trace.size() * 99 / 100);
}

TEST(AttackTrace, DirectFloodSingleName) {
  synth::AttackTraceSpec spec;
  spec.kind = synth::AttackTraceSpec::Kind::DirectFlood;
  spec.rate_qps = 5000;
  spec.duration_ns = kSecond;
  spec.seed = 4;
  auto trace = synth::make_attack_trace(spec);
  std::set<std::string> qnames;
  for (const auto& rec : trace) {
    auto msg = rec.message();
    qnames.insert(msg->questions[0].qname.to_string());
  }
  EXPECT_EQ(qnames.size(), 1u);
}

TEST(AttackTrace, DrivesNxDomainLoadOnServer) {
  // Replay a water-torture attack through the simulator: every query misses
  // (NXDOMAIN) and the server answers all of it — the §1 DoS study's
  // baseline measurement.
  server::AuthServer s;
  auto z = zone::parse_zone(R"(
$ORIGIN example.com.
$TTL 3600
@ IN SOA ns1 admin 1 2 3 4 300
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.80
)");
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(s.default_zones().add(std::move(*z)).ok());

  synth::AttackTraceSpec spec;
  spec.rate_qps = 2000;
  spec.duration_ns = 5 * kSecond;
  spec.seed = 5;
  auto trace = synth::make_attack_trace(spec);

  simnet::SimReplayConfig cfg;
  cfg.sample_interval = kSecond;
  auto result = simnet::simulate_replay(trace, s, cfg);
  EXPECT_EQ(result.responses, result.queries);
  EXPECT_GT(s.stats().nxdomain.load(), result.queries * 95 / 100);
}

// --- live mutation ------------------------------------------------------------

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

TEST(LiveMutation, AppliedDuringReplay) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok());

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 5 * kMilli;
  spec.duration_ns = kSecond / 2;
  spec.client_count = 10;
  auto trace = synth::make_fixed_trace(spec);

  // Live pipeline: drop every other query by qtype filter after forcing
  // half to AAAA.
  mutate::MutatorPipeline live;
  int counter = 0;
  live.edit_message([&counter](dns::Message& msg) {
    if (++counter % 2 == 0) msg.questions[0].qtype = dns::RRType::AAAA;
  });
  live.filter([](const trace::TraceRecord&, const dns::Message& msg) {
    return msg.questions[0].qtype == dns::RRType::A;
  });

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.live_mutator = &live;
  replay::QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->mutator_dropped, trace.size() / 2);
  EXPECT_EQ(report->queries_sent, trace.size() / 2);
  EXPECT_EQ(report->responses_received, report->queries_sent);
}

}  // namespace
}  // namespace ldp

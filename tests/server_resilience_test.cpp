// Resilience-layer regression suite (`ctest -L server` / check_server):
// admission control (LRU eviction, per-client quotas), slow-client defense
// (read deadlines, partial-buffer caps), adaptive overload degradation with
// hysteresis, and the --limits/--overload spec parsers. The frontend is driven single-threaded through
// EventLoop::poll_once from the test thread, so connection admission,
// eviction order, and overload transitions are a deterministic function of
// the scripted client actions — which is what lets the fixed-seed scenario
// at the bottom pin exact counter values.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <optional>
#include <vector>

#include "dns/message.hpp"
#include "server/background.hpp"
#include "server/frontend.hpp"
#include "server/limits.hpp"
#include "zone/parser.hpp"

namespace ldp::server {
namespace {

using dns::Message;
using dns::Name;
using dns::Rcode;
using dns::RRType;

constexpr const char* kZoneText = R"(
$ORIGIN example.com.
$TTL 3600
@   IN SOA ns1 admin 1 7200 900 1209600 300
    IN NS ns1
ns1 IN A  192.0.2.1
www IN A  192.0.2.80
)";

AuthServer example_server() {
  AuthServer s;
  auto z = zone::parse_zone(kZoneText);
  EXPECT_TRUE(z.ok()) << (z.ok() ? "" : z.error().message);
  EXPECT_TRUE(s.default_zones().add(std::move(*z)).ok());
  return s;
}

// Single-threaded harness: the test thread owns the loop and pumps it
// explicitly, so server state only changes between scripted client actions.
struct Harness {
  AuthServer auth = example_server();
  net::EventLoop loop;
  std::unique_ptr<ServerFrontend> fe;

  explicit Harness(FrontendConfig cfg) {
    auto started = ServerFrontend::start(loop, auth, cfg);
    EXPECT_TRUE(started.ok()) << (started.ok() ? "" : started.error().message);
    fe = std::move(*started);
  }

  void pump(int iters = 5) {
    for (int i = 0; i < iters; ++i) loop.poll_once(2 * kMilli);
  }

  template <typename F>
  bool pump_until(F cond, TimeNs budget = 3 * kSecond) {
    TimeNs start = mono_now_ns();
    while (!cond()) {
      loop.poll_once(2 * kMilli);
      if (mono_now_ns() - start > budget) return false;
    }
    return true;
  }

  const ConnectionStats& stats() const { return fe->connections(); }
};

// Connect and wait until the server has acted on the accept (either
// admitted it or refused it for quota).
net::TcpStream connect_client(Harness& h) {
  uint64_t before = h.stats().accepted + h.stats().refused_quota;
  auto stream = net::TcpStream::connect(h.fe->endpoint());
  EXPECT_TRUE(stream.ok());
  EXPECT_TRUE(h.pump_until(
      [&] { return h.stats().accepted + h.stats().refused_quota > before; }));
  return std::move(*stream);
}

// Queue one query and pump until it is fully written to the socket.
void send_query(Harness& h, net::TcpStream& stream, uint16_t id) {
  Message q = Message::make_query(id, *Name::parse("www.example.com"), RRType::A);
  (void)stream.send_message(q.to_wire());
  EXPECT_TRUE(h.pump_until([&] {
    (void)stream.flush();
    return stream.pending_bytes() == 0;
  }));
}

// Pump until one framed reply arrives (nullopt on close/timeout).
std::optional<Message> read_reply(Harness& h, net::TcpStream& stream) {
  std::optional<Message> reply;
  bool closed = false;
  h.pump_until([&] {
    auto msgs = stream.read_messages(closed);
    if (!msgs.ok()) return true;
    for (const auto& m : *msgs) {
      auto parsed = Message::from_wire(m);
      EXPECT_TRUE(parsed.ok());
      if (parsed.ok()) reply = std::move(*parsed);
    }
    return reply.has_value() || closed;
  });
  return reply;
}

// Pump until the server's close reaches the client as EOF.
bool wait_closed(Harness& h, net::TcpStream& stream) {
  bool closed = false;
  h.pump_until([&] {
    auto msgs = stream.read_messages(closed);
    return !msgs.ok() || closed;
  });
  return closed;
}

// Write raw unframed bytes — the slowloris primitive: keeps the connection
// "active" without ever completing a length-prefixed frame.
void dribble(net::TcpStream& stream, std::vector<uint8_t> bytes) {
  (void)::send(stream.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
}

// --- admission control ----------------------------------------------------

TEST(Admission, LruEvictionOrderAndCap) {
  FrontendConfig cfg;
  cfg.limits.max_connections = 3;
  cfg.tcp_idle_timeout = 10 * kSecond;
  Harness h(cfg);

  auto c1 = connect_client(h);
  auto c2 = connect_client(h);
  auto c3 = connect_client(h);
  EXPECT_EQ(h.stats().established, 3u);

  // Touch c1 then c3: the LRU order is now c2 < c1 < c3.
  send_query(h, c1, 1);
  ASSERT_TRUE(read_reply(h, c1).has_value());
  send_query(h, c3, 3);
  ASSERT_TRUE(read_reply(h, c3).has_value());

  // The fourth connection must evict exactly c2 (least recently active).
  auto c4 = connect_client(h);
  EXPECT_EQ(h.stats().evicted_lru, 1u);
  EXPECT_EQ(h.stats().established, 3u);
  EXPECT_TRUE(wait_closed(h, c2)) << "evicted connection not closed";

  // Survivors and the newcomer still answer queries.
  for (auto* c : {&c1, &c3, &c4}) {
    send_query(h, *c, 9);
    EXPECT_TRUE(read_reply(h, *c).has_value());
  }
  EXPECT_EQ(h.stats().accepted, 4u);
  EXPECT_TRUE(h.stats().consistent());
}

TEST(Admission, PerClientQuotaRefusesBeyondCap) {
  FrontendConfig cfg;
  cfg.limits.per_client_quota = 2;
  Harness h(cfg);

  auto c1 = connect_client(h);
  auto c2 = connect_client(h);
  EXPECT_EQ(h.stats().established, 2u);

  // All test clients share 127.0.0.1, so the third trips the quota: closed
  // before it is ever established, counted only under refused_quota.
  auto c3 = connect_client(h);
  EXPECT_EQ(h.stats().refused_quota, 1u);
  EXPECT_EQ(h.stats().accepted, 2u);
  EXPECT_EQ(h.stats().established, 2u);
  EXPECT_TRUE(wait_closed(h, c3));

  // Releasing one slot re-admits the client address.
  { auto gone = std::move(c1); }  // destructor sends FIN
  ASSERT_TRUE(h.pump_until([&] { return h.stats().closed_by_peer == 1u; }));
  auto c4 = connect_client(h);
  EXPECT_EQ(h.stats().accepted, 3u);
  send_query(h, c4, 4);
  EXPECT_TRUE(read_reply(h, c4).has_value());
  EXPECT_TRUE(h.stats().consistent());
}

// --- slow-client defense --------------------------------------------------

TEST(SlowClient, ReadDeadlineClosesDribbler) {
  FrontendConfig cfg;
  cfg.limits.read_deadline = 150 * kMilli;
  cfg.sweep_interval = 30 * kMilli;
  cfg.tcp_idle_timeout = 10 * kSecond;  // idle must NOT be what fires
  Harness h(cfg);

  auto slow = connect_client(h);
  auto healthy = connect_client(h);

  // The dribbler sends one byte of a frame header and stalls; the bytes
  // keep last_activity fresh, so only the read deadline can catch it.
  dribble(slow, {0x00});
  ASSERT_TRUE(h.pump_until([&] {
    dribble(slow, {});  // no-op; just keep pumping the loop
    return h.stats().deadline_closed == 1u;
  }));
  EXPECT_TRUE(wait_closed(h, slow));

  // The healthy client rode through untouched.
  send_query(h, healthy, 7);
  EXPECT_TRUE(read_reply(h, healthy).has_value());
  EXPECT_EQ(h.stats().established, 1u);
  EXPECT_EQ(h.stats().closed_idle, 0u);
  EXPECT_TRUE(h.stats().consistent());
}

TEST(SlowClient, PartialBufferOverflowCloses) {
  FrontendConfig cfg;
  cfg.limits.max_partial_bytes = 64;
  Harness h(cfg);

  auto hostile = connect_client(h);
  // Frame header claims 1000 bytes; stream 200 — never a complete frame,
  // so the reassembly buffer grows until the cap cuts it off.
  std::vector<uint8_t> bytes{0x03, 0xe8};
  bytes.resize(202, 0xab);
  dribble(hostile, bytes);
  ASSERT_TRUE(h.pump_until([&] { return h.stats().overflow_closed == 1u; }));
  EXPECT_TRUE(wait_closed(h, hostile));
  EXPECT_EQ(h.stats().established, 0u);
  EXPECT_TRUE(h.stats().consistent());
}

TEST(SlowClient, UnhardenedFrontendAccumulatesSlowConnections) {
  // Contrast case: with no limits, slowloris connections pile up and only
  // the (long) idle timeout would ever reclaim them.
  FrontendConfig cfg;
  cfg.tcp_idle_timeout = 10 * kSecond;
  Harness h(cfg);

  std::vector<net::TcpStream> attackers;
  for (int i = 0; i < 16; ++i) {
    attackers.push_back(connect_client(h));
    dribble(attackers.back(), {0x00});
  }
  h.pump(20);
  EXPECT_EQ(h.stats().established, 16u);
  EXPECT_EQ(h.stats().deadline_closed, 0u);
  EXPECT_TRUE(h.stats().consistent());
}

// --- overload degradation -------------------------------------------------

TEST(Overload, RefusePolicyWithHysteresis) {
  FrontendConfig cfg;
  cfg.overload.policy = OverloadPolicy::Refuse;
  cfg.overload.high_watermark = 3;
  cfg.overload.low_watermark = 1;
  Harness h(cfg);

  auto c1 = connect_client(h);
  auto c2 = connect_client(h);
  EXPECT_FALSE(h.fe->overloaded());
  auto c3 = connect_client(h);
  EXPECT_TRUE(h.fe->overloaded());
  EXPECT_EQ(h.stats().overload_entered, 1u);

  // TCP queries get a header-only REFUSED, not a zone answer.
  send_query(h, c1, 11);
  auto refused = read_reply(h, c1);
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->header.rcode, Rcode::Refused);
  EXPECT_TRUE(refused->answers.empty());
  EXPECT_EQ(h.stats().refused_overload, 1u);

  // UDP is degraded by the same policy.
  auto udp = net::UdpSocket::create();
  ASSERT_TRUE(udp.ok());
  Message q = Message::make_query(12, *Name::parse("www.example.com"), RRType::A);
  ASSERT_TRUE(udp->send_to(h.fe->endpoint(), q.to_wire()).ok());
  std::optional<net::UdpSocket::Datagram> dg;
  ASSERT_TRUE(h.pump_until([&] {
    auto r = udp->recv();
    if (r.ok() && r->has_value()) dg = std::move(**r);
    return dg.has_value();
  }));
  auto udp_reply = Message::from_wire(dg->payload);
  ASSERT_TRUE(udp_reply.ok());
  EXPECT_EQ(udp_reply->header.rcode, Rcode::Refused);
  EXPECT_EQ(udp_reply->header.id, 12);
  EXPECT_EQ(h.stats().refused_overload, 2u);

  // Dropping to 2 connections (> low) must NOT clear overload: hysteresis.
  { auto gone = std::move(c3); }
  ASSERT_TRUE(h.pump_until([&] { return h.stats().closed_by_peer == 1u; }));
  EXPECT_TRUE(h.fe->overloaded());
  EXPECT_EQ(h.stats().overload_exited, 0u);

  // At the low watermark the frontend recovers and answers for real.
  { auto gone = std::move(c2); }
  ASSERT_TRUE(h.pump_until([&] { return h.stats().closed_by_peer == 2u; }));
  EXPECT_FALSE(h.fe->overloaded());
  EXPECT_EQ(h.stats().overload_exited, 1u);
  send_query(h, c1, 13);
  auto answered = read_reply(h, c1);
  ASSERT_TRUE(answered.has_value());
  EXPECT_EQ(answered->header.rcode, Rcode::NoError);
  EXPECT_FALSE(answered->answers.empty());
  EXPECT_TRUE(h.stats().consistent());
}

TEST(Overload, DropPolicySilentlyDiscards) {
  FrontendConfig cfg;
  cfg.overload.policy = OverloadPolicy::Drop;
  cfg.overload.high_watermark = 1;
  cfg.overload.low_watermark = 0;
  Harness h(cfg);

  auto c1 = connect_client(h);
  EXPECT_TRUE(h.fe->overloaded());
  send_query(h, c1, 21);
  ASSERT_TRUE(h.pump_until([&] { return h.stats().dropped_overload == 1u; }));
  // No reply ever comes back for the dropped query.
  bool closed = false;
  h.pump(10);
  auto msgs = c1.read_messages(closed);
  ASSERT_TRUE(msgs.ok());
  EXPECT_TRUE(msgs->empty());
  EXPECT_FALSE(closed);
  EXPECT_TRUE(h.stats().consistent());
}

TEST(Overload, TruncatePolicySetsTc) {
  FrontendConfig cfg;
  cfg.overload.policy = OverloadPolicy::Truncate;
  cfg.overload.high_watermark = 1;
  cfg.overload.low_watermark = 0;
  Harness h(cfg);

  auto c1 = connect_client(h);
  EXPECT_TRUE(h.fe->overloaded());
  send_query(h, c1, 31);
  auto reply = read_reply(h, c1);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->header.tc);
  EXPECT_EQ(reply->header.rcode, Rcode::NoError);
  EXPECT_TRUE(reply->answers.empty());
  EXPECT_EQ(h.stats().truncated_overload, 1u);
  EXPECT_TRUE(h.stats().consistent());
}

// --- sweep/close accounting -----------------------------------------------

TEST(Accounting, ShutdownAndSweepStayConsistent) {
  FrontendConfig cfg;
  cfg.tcp_idle_timeout = 120 * kMilli;
  cfg.sweep_interval = 30 * kMilli;
  Harness h(cfg);

  auto c1 = connect_client(h);
  auto c2 = connect_client(h);
  auto c3 = connect_client(h);
  // c1 closes from the client side; c2 idles out; c3 is open at shutdown.
  { auto gone = std::move(c1); }
  ASSERT_TRUE(h.pump_until([&] { return h.stats().closed_by_peer == 1u; }));
  ASSERT_TRUE(h.pump_until([&] { return h.stats().closed_idle >= 1u; }));
  // c3 survived so far only if it idled later than the sweep caught c2 —
  // re-establish a guaranteed-open connection to pin the shutdown counter.
  auto c4 = connect_client(h);
  size_t open_before = h.stats().established;
  ASSERT_GE(open_before, 1u);
  h.fe->shutdown();
  EXPECT_EQ(h.stats().established, 0u);
  EXPECT_EQ(h.stats().closed_shutdown, open_before);
  EXPECT_TRUE(h.stats().consistent());
}

// --- spec parsers ---------------------------------------------------------

TEST(LimitsSpec, ParsesAllKeysAndRoundTrips) {
  auto limits = parse_limits_spec(
      "max-conns:64,quota:4,read-deadline:2s,write-deadline:500ms,max-partial:4096");
  ASSERT_TRUE(limits.ok()) << limits.error().message;
  EXPECT_EQ(limits->max_connections, 64u);
  EXPECT_EQ(limits->per_client_quota, 4u);
  EXPECT_EQ(limits->read_deadline, 2 * kSecond);
  EXPECT_EQ(limits->write_deadline, 500 * kMilli);
  EXPECT_EQ(limits->max_partial_bytes, 4096u);
  EXPECT_TRUE(limits->any_enabled());

  auto again = parse_limits_spec(limits->to_string());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->to_string(), limits->to_string());
}

TEST(LimitsSpec, RejectsUnknownKeysAndBadValues) {
  EXPECT_FALSE(parse_limits_spec("max-conn:64").ok());  // typo'd key
  EXPECT_FALSE(parse_limits_spec("max-conns:lots").ok());
  EXPECT_FALSE(parse_limits_spec("read-deadline:2parsecs").ok());
  EXPECT_FALSE(parse_limits_spec("max-conns").ok());  // no value
  auto empty = parse_limits_spec("");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->any_enabled());
}

TEST(OverloadSpec, ParsesPoliciesAndDefaultsLow) {
  auto ov = parse_overload_spec("policy:refuse,high:48,low:32");
  ASSERT_TRUE(ov.ok()) << ov.error().message;
  EXPECT_EQ(ov->policy, OverloadPolicy::Refuse);
  EXPECT_EQ(ov->high_watermark, 48u);
  EXPECT_EQ(ov->low_watermark, 32u);
  auto again = parse_overload_spec(ov->to_string());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->to_string(), ov->to_string());

  auto defaulted = parse_overload_spec("policy:drop,high:10");
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(defaulted->low_watermark, 5u);  // defaults to high/2

  EXPECT_EQ(parse_overload_spec("policy:truncate,high:6")->policy,
            OverloadPolicy::Truncate);
}

TEST(OverloadSpec, RejectsInvalidCombinations) {
  EXPECT_FALSE(parse_overload_spec("policy:reboot,high:8").ok());
  EXPECT_FALSE(parse_overload_spec("policy:refuse").ok());        // no high
  EXPECT_FALSE(parse_overload_spec("high:8").ok());               // no policy
  EXPECT_FALSE(parse_overload_spec("policy:refuse,high:4,low:9").ok());
  EXPECT_FALSE(parse_overload_spec("policy:refuse,high:8,cap:2").ok());
}

// --- the acceptance scenario ----------------------------------------------

// Fixed-seed slowloris + overload: 16 clients, the slow set chosen by the
// fault seed (slow_client knob), against a hardened frontend. The counters
// asserted at the bottom are committed regression values for seed 42 — the
// run is deterministic because admission order is scripted, the slow set is
// a pure function of the seed, and deadline closes are forced by an
// explicit wait that only the dribblers can trip.
TEST(Scenario, SeededSlowClientsAgainstHardenedFrontend) {
  fault::FaultSpec spec;
  spec.seed = 42;
  spec.slow_client = 0.4;

  FrontendConfig cfg;
  cfg.limits.max_connections = 8;
  cfg.limits.read_deadline = 400 * kMilli;
  cfg.limits.max_partial_bytes = 128;
  cfg.sweep_interval = 50 * kMilli;
  cfg.tcp_idle_timeout = 30 * kSecond;  // only resilience closes, not idle
  cfg.overload.policy = OverloadPolicy::Refuse;
  cfg.overload.high_watermark = 6;
  cfg.overload.low_watermark = 3;
  Harness h(cfg);

  // Phase A: 16 sequential connects. The cap admits every newcomer and
  // evicts from the LRU tail, so exactly the first 8 are evicted, in order.
  std::vector<net::TcpStream> clients;
  std::vector<bool> slow;
  for (uint64_t i = 0; i < 16; ++i) {
    clients.push_back(connect_client(h));
    slow.push_back(spec.is_slow_client(i));
    ASSERT_LE(h.stats().established, 8u) << "cap breached at connect " << i;
  }
  EXPECT_EQ(h.stats().accepted, 16u);
  EXPECT_EQ(h.stats().evicted_lru, 8u);
  EXPECT_EQ(h.stats().established, 8u);
  EXPECT_TRUE(h.fe->overloaded());  // crossed high=6 during the connects
  EXPECT_EQ(h.stats().overload_entered, 1u);

  // Phase B: survivors 8..15 act out their seeded role. Slow clients
  // dribble a frame fragment; healthy ones send a real query and — because
  // the frontend is overloaded — get a cheap REFUSED, never a stall.
  size_t healthy_survivors = 0;
  for (size_t i = 8; i < 16; ++i) {
    if (slow[i]) {
      dribble(clients[i], {0x01, 0x00, 0xaa});  // claims 256 bytes, sends 1
      continue;
    }
    ++healthy_survivors;
    send_query(h, clients[i], static_cast<uint16_t>(i));
    auto reply = read_reply(h, clients[i]);
    ASSERT_TRUE(reply.has_value()) << "healthy client " << i << " starved";
    EXPECT_EQ(reply->header.rcode, Rcode::Refused);
  }
  EXPECT_EQ(h.stats().refused_overload, healthy_survivors);

  // Phase C: the read deadline reaps every dribbler; healthy connections
  // (no partial frame pending) are untouched.
  size_t slow_survivors = 8 - healthy_survivors;
  ASSERT_TRUE(h.pump_until(
      [&] { return h.stats().deadline_closed == slow_survivors; },
      5 * kSecond));
  EXPECT_EQ(h.stats().established, healthy_survivors);

  // Phase D: drain healthy clients to the low watermark; the frontend
  // recovers and serves real answers again — non-zero goodput end to end.
  size_t open = healthy_survivors;
  for (size_t i = 8; i < 16 && open > cfg.overload.low_watermark; ++i) {
    if (slow[i]) continue;
    { auto gone = std::move(clients[i]); }
    --open;
    slow[i] = true;  // mark consumed so the goodput loop skips it
    ASSERT_TRUE(h.pump_until([&] { return h.stats().established == open; }));
  }
  EXPECT_FALSE(h.fe->overloaded());
  EXPECT_EQ(h.stats().overload_exited, 1u);

  size_t goodput = 0;
  for (size_t i = 8; i < 16; ++i) {
    if (slow[i]) continue;
    send_query(h, clients[i], static_cast<uint16_t>(100 + i));
    auto reply = read_reply(h, clients[i]);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.rcode, Rcode::NoError);
    EXPECT_FALSE(reply->answers.empty());
    ++goodput;
  }
  EXPECT_GT(goodput, 0u);

  // Committed regression values for seed 42 (slow survivors: indices 13 and
  // 14). The slow set is a pure function of (seed, connection index), so
  // these only change if stream_seed or the slow_client draw deliberately
  // changes.
  EXPECT_EQ(healthy_survivors, 6u);
  EXPECT_EQ(h.stats().deadline_closed, 2u);
  EXPECT_EQ(h.stats().refused_overload, 6u);
  EXPECT_EQ(h.stats().evicted_lru, 8u);
  EXPECT_TRUE(h.stats().consistent());
}

}  // namespace
}  // namespace ldp::server

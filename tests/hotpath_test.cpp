// UDP hot-path regression suite (`ctest -L hotpath` / check_hotpath):
// sendmmsg/recvmmsg batching (chunking, partial-batch prefixes, would-block
// handling), the addressing and TCP-framing fixes that rode along, the
// impaired send_batch against a closed-form per-datagram draw schedule
// (including a hard error mid-batch), replay-engine counters against the
// closed-form fault reference, a mid-batch send error failing only its own
// query, the response template cache (byte-identical patched replies,
// DO-bit keying, revision invalidation, LRU bounds), and the in-place name
// decoder against its hostile-input contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <thread>
#include <vector>

#include "dns/message.hpp"
#include "dns/name.hpp"
#include "expect_counters.hpp"
#include "fault/fault.hpp"
#include "fault_reference.hpp"
#include "net/event_loop.hpp"
#include "net/impaired.hpp"
#include "net/socket.hpp"
#include "replay/engine.hpp"
#include "server/auth_server.hpp"
#include "server/background.hpp"
#include "server/frontend.hpp"
#include "server/response_cache.hpp"
#include "synth/generator.hpp"
#include "util/bytes.hpp"
#include "zone/parser.hpp"

namespace ldp {
namespace {

using dns::Message;
using dns::Name;
using dns::RRType;

const Endpoint kLoopback{IpAddr{Ip4{127, 0, 0, 1}}, 0};

Endpoint v6_endpoint() {
  std::array<uint8_t, 16> bytes{};
  bytes[15] = 1;  // ::1
  return Endpoint{IpAddr{Ip6{bytes}}, 5353};
}

std::vector<uint8_t> make_payload(size_t i, size_t len = 24) {
  std::vector<uint8_t> p(len);
  for (size_t j = 0; j < len; ++j)
    p[j] = static_cast<uint8_t>((i * 131 + j * 7) & 0xff);
  return p;
}

// Drain everything currently deliverable on `sock` (retrying for up to
// `budget` after the last arrival) and return the payloads.
std::vector<std::vector<uint8_t>> drain_udp(net::UdpSocket& sock,
                                            TimeNs budget = 300 * kMilli) {
  std::vector<std::vector<uint8_t>> got;
  TimeNs last = mono_now_ns();
  while (mono_now_ns() - last < budget) {
    auto batch = sock.recv_batch();
    EXPECT_TRUE(batch.ok()) << (batch.ok() ? "" : batch.error().message);
    if (!batch.ok()) return got;
    if (batch->empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    for (const auto& view : *batch)
      got.emplace_back(view.payload.begin(), view.payload.end());
    last = mono_now_ns();
  }
  return got;
}

TEST(UdpBatchT, RoundTripAcrossChunkBoundaries) {
  auto tx = net::UdpSocket::bind(kLoopback);
  auto rx = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(tx.ok() && rx.ok());
  Endpoint dst = *rx->local_endpoint();

  // 40 datagrams > 2 * kBatchSize: exercises internal sendmmsg chunking.
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<net::UdpSocket::OutDatagram> dgs;
  for (size_t i = 0; i < 40; ++i) {
    payloads.push_back(make_payload(i, 20 + i));
    dgs.push_back({dst, payloads.back()});
  }
  auto sent = tx->send_batch(dgs);
  ASSERT_TRUE(sent.ok()) << sent.error().message;
  EXPECT_EQ(*sent, dgs.size());

  auto got = drain_udp(*rx);
  ASSERT_EQ(got.size(), payloads.size());
  std::sort(got.begin(), got.end());
  std::sort(payloads.begin(), payloads.end());
  EXPECT_EQ(got, payloads);
}

TEST(UdpBatchT, EmptyRecvBatchMeansWouldBlock) {
  auto rx = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(rx.ok());
  auto batch = rx->recv_batch();
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

TEST(UdpBatchT, HardErrorShortensPrefixThenSurfacesOnRetry) {
  auto tx = net::UdpSocket::bind(kLoopback);
  auto rx = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(tx.ok() && rx.ok());
  Endpoint dst = *rx->local_endpoint();

  std::vector<uint8_t> small = make_payload(1);
  std::vector<uint8_t> oversized(70000, 0xab);  // > max UDP payload: EMSGSIZE
  std::vector<uint8_t> tail = make_payload(2);
  std::vector<net::UdpSocket::OutDatagram> dgs{
      {dst, small}, {dst, oversized}, {dst, tail}};

  // Same contract as a false send_to: the clean prefix is reported, the
  // caller owns the tail.
  auto first = tx->send_batch(dgs);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);

  // Retrying the tail puts the failing datagram first: zero progress, so
  // the hard error surfaces.
  auto retry = tx->send_batch(std::span(dgs).subspan(1));
  EXPECT_FALSE(retry.ok());

  // The path recovers: the datagram after the bad one still goes out.
  auto last = tx->send_batch(std::span(dgs).subspan(2));
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, 1u);
  EXPECT_EQ(drain_udp(*rx).size(), 2u);
}

TEST(UdpBatchT, MidBatchAddressingErrorYieldsCleanPrefix) {
  auto tx = net::UdpSocket::bind(kLoopback);
  auto rx = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(tx.ok() && rx.ok());
  Endpoint dst = *rx->local_endpoint();

  std::vector<uint8_t> a = make_payload(1);
  std::vector<uint8_t> b = make_payload(2);
  std::vector<net::UdpSocket::OutDatagram> dgs{
      {dst, a}, {v6_endpoint(), b}, {dst, b}};
  auto first = tx->send_batch(dgs);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);
  auto retry = tx->send_batch(std::span(dgs).subspan(1));
  EXPECT_FALSE(retry.ok());
}

TEST(AddressingT, NonV4EndpointsAreErrorsNotZeroAddress) {
  Endpoint v6 = v6_endpoint();
  EXPECT_FALSE(net::SockAddr::from_endpoint(v6).ok());
  EXPECT_FALSE(net::UdpSocket::bind(v6).ok());
  EXPECT_FALSE(net::TcpStream::connect(v6).ok());

  auto sock = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(sock.ok());
  std::vector<uint8_t> payload = make_payload(0);
  EXPECT_FALSE(sock->send_to(v6, payload).ok());
  std::vector<net::UdpSocket::OutDatagram> dgs{{v6, payload}};
  EXPECT_FALSE(sock->send_batch(dgs).ok());
}

TEST(FramingT, OversizedTcpMessageRejectedNotTruncated) {
  auto listener = net::TcpListener::listen(kLoopback);
  ASSERT_TRUE(listener.ok());
  auto stream = net::TcpStream::connect(*listener->local_endpoint());
  ASSERT_TRUE(stream.ok());

  // 65535 octets is the largest frame the 2-byte prefix can describe.
  std::vector<uint8_t> max_frame(65535, 0x5a);
  EXPECT_TRUE(stream->send_message(max_frame).ok());

  // One octet more used to silently truncate the length prefix and
  // desynchronize the stream; now it is an error before any byte moves.
  size_t pending_before = stream->pending_bytes();
  std::vector<uint8_t> too_big(65536, 0x5a);
  auto sent = stream->send_message(too_big);
  EXPECT_FALSE(sent.ok());
  EXPECT_EQ(stream->pending_bytes(), pending_before);
}

TEST(IoCountersT, BatchedPathAmortizesSyscalls) {
  auto tx = net::UdpSocket::bind(kLoopback);
  auto rx = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(tx.ok() && rx.ok());
  Endpoint dst = *rx->local_endpoint();

  std::vector<std::vector<uint8_t>> payloads;
  std::vector<net::UdpSocket::OutDatagram> dgs;
  for (size_t i = 0; i < 16; ++i) {
    payloads.push_back(make_payload(i));
    dgs.push_back({dst, payloads.back()});
  }
  net::IoCounters before = net::io_counters();
  auto sent = tx->send_batch(dgs);
  ASSERT_TRUE(sent.ok());
  ASSERT_EQ(*sent, dgs.size());
  net::IoCounters after = net::io_counters();
  EXPECT_EQ(after.sendmmsg_calls - before.sendmmsg_calls, 1u);
  EXPECT_EQ(after.datagrams_sent - before.datagrams_sent, 16u);
  EXPECT_EQ(drain_udp(*rx).size(), 16u);
}

// ---------------------------------------------------------------------------
// Impaired send_batch against the closed-form draw schedule: one verdict per
// datagram, drawn in input order, however the sends are batched.
// ---------------------------------------------------------------------------

using SendOutcome = net::ImpairedUdpSocket::SendOutcome;

fault::FaultSpec lossy_spec() {
  fault::FaultSpec spec;
  spec.drop = 0.3;
  spec.dup = 0.2;
  spec.corrupt = 0.2;
  spec.seed = 42;
  return spec;
}

/// What the link delivers for `payloads` under a bare stream drawn once per
/// datagram: each verdict applied to its payload (dropped, corrupted,
/// doubled), except for the datagram at index `refused`, which the kernel
/// rejects (its draws are still consumed).
std::vector<std::vector<uint8_t>> reference_delivery(
    fault::FaultStream& ref, const std::vector<std::vector<uint8_t>>& payloads,
    size_t refused = static_cast<size_t>(-1)) {
  std::vector<std::vector<uint8_t>> out;
  for (size_t i = 0; i < payloads.size(); ++i) {
    fault::Verdict v = ref.next(mono_now_ns());
    if (v.is_drop()) continue;
    std::vector<uint8_t> bytes = payloads[i];
    if (v.action == fault::Action::Corrupt) ref.corrupt(bytes);
    if (i == refused) continue;
    out.push_back(bytes);
    if (v.action == fault::Action::Duplicate) out.push_back(bytes);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ImpairedBatchT, FixedSeedDrawScheduleMatchesScalar) {
  constexpr size_t kPackets = 64;
  fault::FaultSpec spec = lossy_spec();
  std::vector<std::vector<uint8_t>> payloads;
  for (size_t i = 0; i < kPackets; ++i) payloads.push_back(make_payload(i));

  // Batched in uneven chunks (7 at a time) so draws cross both caller-batch
  // and internal sendmmsg boundaries.
  auto rx = net::UdpSocket::bind(kLoopback);
  auto tx = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(rx.ok() && tx.ok());
  fault::FaultStream stream(spec, "equiv");
  net::ImpairedUdpSocket sock(std::move(*tx), &stream);
  Endpoint dst = *rx->local_endpoint();
  std::vector<SendOutcome> out;
  for (size_t base = 0; base < kPackets; base += 7) {
    std::vector<net::UdpSocket::OutDatagram> dgs;
    for (size_t i = base; i < std::min(base + 7, kPackets); ++i)
      dgs.push_back({dst, payloads[i]});
    sock.send_batch(dgs, out);
    ASSERT_EQ(out.size(), dgs.size());
    for (SendOutcome o : out) EXPECT_EQ(o, SendOutcome::Left);
  }

  fault::FaultStream ref(spec, "equiv");
  auto expected = reference_delivery(ref, payloads);
  EXPECT_EQ(stream.counters(), ref.counters());
  EXPECT_GT(ref.counters().dropped, 0u);
  EXPECT_GT(ref.counters().duplicated, 0u);
  EXPECT_GT(ref.counters().corrupted, 0u);

  // Same verdicts in the same order ⇒ the same delivered byte multiset,
  // corruption draws included.
  auto got = drain_udp(*rx);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

TEST(ImpairedBatchT, HardErrorMidBatchFailsOnlyThatDatagram) {
  constexpr size_t kPackets = 24;
  fault::FaultSpec spec = lossy_spec();

  // Oversize (EMSGSIZE) the first datagram past index 4 that the link
  // delivers, so the kernel refuses it mid-batch.
  size_t refused = kPackets;
  {
    fault::FaultStream probe(spec, "midbatch");
    for (size_t i = 0; i < kPackets; ++i)
      if (!probe.next(0).is_drop() && i > 4 && refused == kPackets) refused = i;
  }
  ASSERT_LT(refused, kPackets);
  std::vector<std::vector<uint8_t>> payloads;
  for (size_t i = 0; i < kPackets; ++i)
    payloads.push_back(make_payload(i, i == refused ? 65600 : 24));

  auto rx = net::UdpSocket::bind(kLoopback);
  auto tx = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(rx.ok() && tx.ok());
  fault::FaultStream stream(spec, "midbatch");
  net::ImpairedUdpSocket sock(std::move(*tx), &stream);
  Endpoint dst = *rx->local_endpoint();
  std::vector<net::UdpSocket::OutDatagram> dgs;
  for (const auto& p : payloads) dgs.push_back({dst, p});
  std::vector<SendOutcome> out;
  sock.send_batch(dgs, out);

  // Only the refused datagram errors. Link drops before and after it were
  // applied, so they left; the datagrams after it still reach the wire.
  ASSERT_EQ(out.size(), kPackets);
  for (size_t i = 0; i < kPackets; ++i)
    EXPECT_EQ(out[i], i == refused ? SendOutcome::Error : SendOutcome::Left)
        << "datagram " << i;

  fault::FaultStream ref(spec, "midbatch");
  auto expected = reference_delivery(ref, payloads, refused);
  EXPECT_EQ(stream.counters(), ref.counters());
  EXPECT_GT(ref.counters().dropped, 0u);
  auto got = drain_udp(*rx);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

// ---------------------------------------------------------------------------
// Replay-engine counters: a fixed-seed impaired replay must report exactly
// what the closed-form fault reference derives from the per-source draws.
// ---------------------------------------------------------------------------

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

std::vector<trace::TraceRecord> equiv_trace() {
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = kMilli;
  spec.duration_ns = 200 * kMilli;  // 200 queries
  spec.client_count = 8;
  return synth::make_fixed_trace(spec);
}

replay::EngineReport run_replay(const std::vector<trace::TraceRecord>& trace,
                                const std::optional<fault::FaultSpec>& fault,
                                uint32_t max_retries = 1) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  EXPECT_TRUE(bg.ok());

  replay::EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.timed = false;
  cfg.fault = fault;
  cfg.query_timeout = 100 * kMilli;
  cfg.retry_backoff_cap = 200 * kMilli;
  cfg.max_retries = max_retries;
  cfg.drain_grace = 500 * kMilli;
  replay::QueryEngine engine(cfg);
  auto report = engine.replay(trace);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report->queries_sent, trace.size());
  return std::move(*report);
}

TEST(EngineEquivT, BatchedCleanRunAnswersEverything) {
  auto report = run_replay(equiv_trace(), std::nullopt);
  EXPECT_EQ(report.responses_received, report.queries_sent);
  EXPECT_EQ(report.send_errors, 0u);
  EXPECT_EQ(report.lifecycle.expired, 0u);
}

TEST(EngineEquivT, FixedSeedFaultCountersMatchScalarPath) {
  // Loss and dup only: every expected counter follows from the draws.
  fault::FaultSpec spec;
  spec.drop = 0.25;
  spec.dup = 0.1;
  spec.seed = 7;
  auto trace = equiv_trace();

  auto report = run_replay(trace, spec, /*max_retries=*/1);
  replay::EngineReport expected = reference_counters(spec, trace, 1);
  replay::expect_same_counters(
      expected, report, {replay::kQueuePeakTiming, replay::kInFlightPeakTiming});
  EXPECT_GT(expected.lifecycle.retries, 0u);  // the scenario actually bit
  EXPECT_GT(expected.lifecycle.expired, 0u);
  EXPECT_GT(expected.lifecycle.unmatched_responses, 0u);
}

// One datagram the kernel refuses (EMSGSIZE) in the middle of a source's
// burst fails only its own query: the rest are sent, not deferred behind it.
TEST(EngineEquivT, MidBatchSendErrorFailsOnlyThatQuery) {
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = kMilli;
  spec.duration_ns = 10 * kMilli;  // 10 queries
  spec.client_count = 1;
  auto trace = synth::make_fixed_trace(spec);
  ASSERT_EQ(trace.size(), 10u);
  trace[1].dns_payload.resize(65600);  // keeps its header; too big for UDP

  for (uint32_t max_retries : {0u, 2u}) {
    SCOPED_TRACE(max_retries);
    auto report = run_replay(trace, std::nullopt, max_retries);
    EXPECT_EQ(report.responses_received, 9u);
    EXPECT_EQ(report.send_errors, 1u);
    EXPECT_EQ(report.lifecycle.deferred_sends, 0u);
    EXPECT_EQ(report.lifecycle.expired, 0u);
    EXPECT_EQ(report.lifecycle.retries, 0u);
  }
}

// ---------------------------------------------------------------------------
// Response template cache.
// ---------------------------------------------------------------------------

const IpAddr kClient{Ip4{127, 0, 0, 1}};

server::AuthServer example_server() {
  server::AuthServer s;
  auto z = zone::parse_zone(R"(
$ORIGIN example.com.
$TTL 3600
@   IN SOA ns1 admin 1 7200 900 1209600 300
    IN NS ns1
ns1 IN A  192.0.2.1
www IN A  192.0.2.80
)");
  EXPECT_TRUE(z.ok());
  EXPECT_TRUE(s.default_zones().add(std::move(*z)).ok());
  return s;
}

std::vector<uint8_t> query_wire(uint16_t id, const char* qname,
                                RRType qtype = RRType::A, bool rd = true) {
  auto name = Name::parse(qname);
  EXPECT_TRUE(name.ok());
  return Message::make_query(id, *name, qtype, rd).to_wire();
}

TEST(ResponseCacheT, HitPatchesOnlyIdAndRdBit) {
  server::AuthServer auth = example_server();
  server::ResponseCache cache(16);
  std::vector<uint8_t> reply;
  bool nx = false;

  std::vector<uint8_t> q1 = query_wire(0x1234, "www.example.com");
  ASSERT_EQ(cache.probe(q1, 512, reply, nx),
            server::ResponseCache::Outcome::Miss);
  auto slow1 = auth.answer_wire(q1, kClient, 512);
  ASSERT_TRUE(slow1.has_value());
  cache.insert(*slow1);
  EXPECT_EQ(cache.stats().insertions, 1u);

  // Same question, different ID and RD: the patched template must be
  // byte-identical to what the slow path would have produced.
  std::vector<uint8_t> q2 = query_wire(0xbeef, "www.example.com", RRType::A,
                                       /*rd=*/false);
  ASSERT_EQ(cache.probe(q2, 512, reply, nx),
            server::ResponseCache::Outcome::Hit);
  auto slow2 = auth.answer_wire(q2, kClient, 512);
  ASSERT_TRUE(slow2.has_value());
  EXPECT_EQ(reply, *slow2);
  EXPECT_FALSE(nx);
}

TEST(ResponseCacheT, QnameCaseFoldsIntoOneKey) {
  server::AuthServer auth = example_server();
  server::ResponseCache cache(16);
  std::vector<uint8_t> reply;
  bool nx = false;

  std::vector<uint8_t> lower = query_wire(1, "www.example.com");
  ASSERT_EQ(cache.probe(lower, 512, reply, nx),
            server::ResponseCache::Outcome::Miss);
  cache.insert(*auth.answer_wire(lower, kClient, 512));

  // Uppercase the qname bytes in place (labels start at offset 12).
  std::vector<uint8_t> upper = query_wire(2, "www.example.com");
  for (size_t i = 12; i < upper.size(); ++i)
    if (upper[i] >= 'a' && upper[i] <= 'z')
      upper[i] = static_cast<uint8_t>(upper[i] - 'a' + 'A');
  ASSERT_EQ(cache.probe(upper, 512, reply, nx),
            server::ResponseCache::Outcome::Hit);
  // make_response echoes the *parsed* (lowercased) question, so the
  // patched template matches the slow path for the uppercase query too.
  EXPECT_EQ(reply, *auth.answer_wire(upper, kClient, 512));
}

TEST(ResponseCacheT, DoBitAndEdnsPresenceSeparateKeys) {
  server::AuthServer auth = example_server();
  server::ResponseCache cache(16);
  std::vector<uint8_t> reply;
  bool nx = false;

  auto name = Name::parse("www.example.com");
  ASSERT_TRUE(name.ok());
  Message plain = Message::make_query(1, *name, RRType::A);
  Message edns = plain;
  edns.edns = dns::Edns{};
  Message edns_do = plain;
  edns_do.edns = dns::Edns{};
  edns_do.edns->dnssec_ok = true;

  for (const Message* q : {&plain, &edns, &edns_do}) {
    std::vector<uint8_t> wire = q->to_wire();
    ASSERT_EQ(cache.probe(wire, 512, reply, nx),
              server::ResponseCache::Outcome::Miss)
        << "EDNS/DO variants must not collide";
    cache.insert(*auth.answer_wire(wire, kClient, 512));
  }
  EXPECT_EQ(cache.size(), 3u);
  // And each one now hits its own entry, matching its own slow path.
  for (const Message* q : {&plain, &edns, &edns_do}) {
    Message probe_q = *q;
    probe_q.header.id = 0x7777;
    std::vector<uint8_t> wire = probe_q.to_wire();
    ASSERT_EQ(cache.probe(wire, 512, reply, nx),
              server::ResponseCache::Outcome::Hit);
    EXPECT_EQ(reply, *auth.answer_wire(wire, kClient, 512));
  }
}

TEST(ResponseCacheT, NxdomainFlagSurvivesTheTemplate) {
  server::AuthServer auth = example_server();
  server::ResponseCache cache(16);
  std::vector<uint8_t> reply;
  bool nx = false;

  std::vector<uint8_t> q = query_wire(9, "missing.example.com");
  ASSERT_EQ(cache.probe(q, 512, reply, nx),
            server::ResponseCache::Outcome::Miss);
  cache.insert(*auth.answer_wire(q, kClient, 512));
  std::vector<uint8_t> q2 = query_wire(10, "missing.example.com");
  ASSERT_EQ(cache.probe(q2, 512, reply, nx),
            server::ResponseCache::Outcome::Hit);
  EXPECT_TRUE(nx);
}

TEST(ResponseCacheT, RevisionChangeDropsEverything) {
  server::AuthServer auth = example_server();
  server::ResponseCache cache(16);
  std::vector<uint8_t> reply;
  bool nx = false;

  cache.sync_revision(auth.revision());
  std::vector<uint8_t> q = query_wire(1, "www.example.com");
  ASSERT_EQ(cache.probe(q, 512, reply, nx),
            server::ResponseCache::Outcome::Miss);
  cache.insert(*auth.answer_wire(q, kClient, 512));
  ASSERT_EQ(cache.size(), 1u);

  // Zone data moved: stale templates must not survive.
  auto z = zone::parse_zone(R"(
$ORIGIN other.test.
$TTL 3600
@ IN SOA ns1 admin 1 7200 900 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.9
)");
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(auth.default_zones().add(std::move(*z)).ok());
  cache.sync_revision(auth.revision());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.probe(q, 512, reply, nx),
            server::ResponseCache::Outcome::Miss);
}

TEST(ResponseCacheT, UncacheableShapesBypass) {
  server::ResponseCache cache(16);
  std::vector<uint8_t> reply;
  bool nx = false;

  // Header only, qdcount == 0.
  std::vector<uint8_t> empty(12, 0);
  EXPECT_EQ(cache.probe(empty, 512, reply, nx),
            server::ResponseCache::Outcome::Bypass);

  // A response (QR set) is not a query.
  std::vector<uint8_t> resp = query_wire(1, "www.example.com");
  resp[2] |= 0x80;
  EXPECT_EQ(cache.probe(resp, 512, reply, nx),
            server::ResponseCache::Outcome::Bypass);

  // EDNS options (cookies etc.) vary per client: never cached.
  auto name = Name::parse("www.example.com");
  ASSERT_TRUE(name.ok());
  Message q = Message::make_query(1, *name, RRType::A);
  q.edns = dns::Edns{};
  q.edns->options = {0x00, 0x0a, 0x00, 0x02, 0xaa, 0xbb};  // COOKIE-ish
  EXPECT_EQ(cache.probe(q.to_wire(), 512, reply, nx),
            server::ResponseCache::Outcome::Bypass);

  // Disabled cache bypasses everything.
  server::ResponseCache off(0);
  std::vector<uint8_t> plain = query_wire(1, "www.example.com");
  EXPECT_EQ(off.probe(plain, 512, reply, nx),
            server::ResponseCache::Outcome::Bypass);
}

TEST(ResponseCacheT, InsertRejectsHeaderOnlySalvageReplies) {
  server::ResponseCache cache(16);
  std::vector<uint8_t> reply;
  bool nx = false;
  std::vector<uint8_t> q = query_wire(1, "www.example.com");
  ASSERT_EQ(cache.probe(q, 512, reply, nx),
            server::ResponseCache::Outcome::Miss);
  // A header-only FORMERR salvage does not echo the question; the per-hit
  // patch could not reproduce it, so it must not enter the cache.
  std::vector<uint8_t> formerr(12, 0);
  formerr[2] = 0x80;  // QR
  formerr[3] = 0x01;  // FORMERR
  cache.insert(formerr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResponseCacheT, LruBoundsTheStore) {
  server::AuthServer auth = example_server();
  server::ResponseCache cache(2);
  std::vector<uint8_t> reply;
  bool nx = false;

  const char* names[] = {"a.example.com", "b.example.com", "c.example.com"};
  for (const char* n : names) {
    std::vector<uint8_t> q = query_wire(1, n);
    ASSERT_EQ(cache.probe(q, 512, reply, nx),
              server::ResponseCache::Outcome::Miss);
    cache.insert(*auth.answer_wire(q, kClient, 512));
  }
  EXPECT_EQ(cache.size(), 2u);
  // The oldest entry was evicted; the newest survives.
  std::vector<uint8_t> qa = query_wire(2, "a.example.com");
  EXPECT_EQ(cache.probe(qa, 512, reply, nx),
            server::ResponseCache::Outcome::Miss);
  std::vector<uint8_t> qc = query_wire(2, "c.example.com");
  EXPECT_EQ(cache.probe(qc, 512, reply, nx),
            server::ResponseCache::Outcome::Hit);
}

// ---------------------------------------------------------------------------
// Frontend integration: the batched UDP reply path serves cached templates
// byte-identically and keeps the cache stats / server stats honest.
// ---------------------------------------------------------------------------

struct Harness {
  server::AuthServer auth = example_server();
  net::EventLoop loop;
  std::unique_ptr<server::ServerFrontend> fe;

  explicit Harness(server::FrontendConfig cfg = {}) {
    auto started = server::ServerFrontend::start(loop, auth, cfg);
    EXPECT_TRUE(started.ok()) << (started.ok() ? "" : started.error().message);
    fe = std::move(*started);
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
};

std::optional<std::vector<uint8_t>> udp_ask(Harness& h, net::UdpSocket& sock,
                                            std::span<const uint8_t> query) {
  // UDP is lossy even on loopback under buffer pressure: resend every
  // ~300ms within the budget rather than flaking on one eaten datagram.
  auto sent = sock.send_to(h.fe->endpoint(), query);
  EXPECT_TRUE(sent.ok() && *sent);
  std::optional<std::vector<uint8_t>> reply;
  TimeNs last_send = mono_now_ns();
  h.pump_until([&] {
    if (mono_now_ns() - last_send > 300 * kMilli) {
      (void)sock.send_to(h.fe->endpoint(), query);
      last_send = mono_now_ns();
    }
    auto dg = sock.recv();
    if (!dg.ok() || !dg->has_value()) return false;
    reply.emplace(std::move((**dg).payload));
    return true;
  });
  return reply;
}

TEST(FrontendCacheT, CachedRepliesAreByteIdenticalModuloId) {
  Harness h;
  ASSERT_NE(h.fe->response_cache(), nullptr);
  auto client = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(client.ok());

  std::vector<uint8_t> q1 = query_wire(0x1111, "www.example.com");
  std::vector<uint8_t> q2 = query_wire(0x2222, "www.example.com");
  auto r1 = udp_ask(h, *client, q1);
  auto r2 = udp_ask(h, *client, q2);
  ASSERT_TRUE(r1.has_value() && r2.has_value());
  EXPECT_GE(h.fe->response_cache()->stats().hits, 1u);

  // Patch the first reply's ID to the second query's: bytes must agree.
  std::vector<uint8_t> expected = *r1;
  ASSERT_GE(expected.size(), 2u);
  expected[0] = 0x22;
  expected[1] = 0x22;
  EXPECT_EQ(*r2, expected);
  // The cached reply was counted like a served query (>= because the
  // helper may resend under loopback buffer pressure).
  EXPECT_GE(h.auth.stats().queries.load(), 2u);
  EXPECT_EQ(h.auth.stats().queries.load(), h.auth.stats().responses.load());
}

TEST(FrontendCacheT, ZoneChangeInvalidatesLiveCache) {
  Harness h;
  auto client = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(client.ok());

  auto r1 = udp_ask(h, *client, query_wire(1, "www.example.com"));
  auto r2 = udp_ask(h, *client, query_wire(2, "www.example.com"));
  ASSERT_TRUE(r1.has_value() && r2.has_value());
  ASSERT_GE(h.fe->response_cache()->stats().hits, 1u);

  auto z = zone::parse_zone(R"(
$ORIGIN added.test.
$TTL 3600
@ IN SOA ns1 admin 1 7200 900 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.7
)");
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(h.auth.default_zones().add(std::move(*z)).ok());

  auto r3 = udp_ask(h, *client, query_wire(3, "www.example.com"));
  ASSERT_TRUE(r3.has_value());
  EXPECT_GE(h.fe->response_cache()->stats().invalidations, 1u);
}

TEST(FrontendCacheT, RotateAnswersServersBypassTheCache) {
  server::FrontendConfig cfg;
  Harness h(cfg);
  h.auth.config().rotate_answers = true;
  auto client = net::UdpSocket::bind(kLoopback);
  ASSERT_TRUE(client.ok());
  auto r1 = udp_ask(h, *client, query_wire(1, "www.example.com"));
  auto r2 = udp_ask(h, *client, query_wire(2, "www.example.com"));
  ASSERT_TRUE(r1.has_value() && r2.has_value());
  EXPECT_EQ(h.fe->response_cache()->stats().hits, 0u);
}

// ---------------------------------------------------------------------------
// In-place name decoding.
// ---------------------------------------------------------------------------

TEST(NameDecodeT, MatchesFromWireAcrossCompressionPointers) {
  // Offset 0: "EXAMPLE.com" (uppercase exercises the lowercasing sink);
  // offset 13: "www" + pointer back to 0.
  std::vector<uint8_t> buf;
  buf.push_back(7);
  for (char c : std::string("EXAMPLE")) buf.push_back(static_cast<uint8_t>(c));
  buf.push_back(3);
  for (char c : std::string("com")) buf.push_back(static_cast<uint8_t>(c));
  buf.push_back(0);
  size_t second = buf.size();
  buf.push_back(3);
  for (char c : std::string("www")) buf.push_back(static_cast<uint8_t>(c));
  buf.push_back(0xc0);
  buf.push_back(0x00);

  ByteReader rd1(buf);
  ASSERT_TRUE(rd1.seek(second).ok());
  std::string wire;
  ASSERT_TRUE(dns::decode_name_wire(rd1, wire).ok());

  ByteReader rd2(buf);
  ASSERT_TRUE(rd2.seek(second).ok());
  auto name = Name::from_wire(rd2);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->to_string(), "www.example.com.");
  ByteWriter w;
  name->to_wire(w);
  std::vector<uint8_t> via_name = std::move(w).take();
  EXPECT_EQ(std::vector<uint8_t>(wire.begin(), wire.end()), via_name);
  // Both readers end at the same position (after the pointer).
  EXPECT_EQ(rd1.pos(), rd2.pos());
}

TEST(NameDecodeT, RejectsHostileInputLikeFromWire) {
  // Forward pointer (only strictly-backward targets are legal).
  std::vector<uint8_t> forward{0xc0, 0x02, 0x00};
  // Truncated: label length runs past the buffer.
  std::vector<uint8_t> truncated{0x05, 'a', 'b'};
  for (const auto& buf : {forward, truncated}) {
    ByteReader rd1(buf);
    std::string out;
    EXPECT_FALSE(dns::decode_name_wire(rd1, out).ok());
    EXPECT_TRUE(out.empty());  // failed decode leaves no partial bytes
    ByteReader rd2(buf);
    EXPECT_FALSE(Name::from_wire(rd2).ok());
  }
}

TEST(NameDecodeT, AppendsAfterExistingBytesAndRestoresOnError) {
  std::vector<uint8_t> good;
  good.push_back(1);
  good.push_back('x');
  good.push_back(0);
  ByteReader rd(good);
  std::string out = "prefix";
  ASSERT_TRUE(dns::decode_name_wire(rd, out).ok());
  EXPECT_EQ(out.substr(0, 6), "prefix");
  EXPECT_EQ(out.substr(6), std::string("\x01x\x00", 3));

  std::vector<uint8_t> bad{0x05, 'a'};
  ByteReader rd2(bad);
  std::string out2 = "keep";
  EXPECT_FALSE(dns::decode_name_wire(rd2, out2).ok());
  EXPECT_EQ(out2, "keep");
}

}  // namespace
}  // namespace ldp

// Fixed-seed fuzzing of the distributed-replay control plane: the ASSIGN
// parser, the frame decoder (FrameReader), the REPORT parser and the
// checkpoint parser with its counter block. Workers and controllers trust
// nothing they read from each other or from disk, so every mutated input
// must either round-trip or be rejected — never crash, hang or read out of
// bounds (the asan preset runs this binary too).
//
// "Round-trips" means: whatever a parser accepts re-encodes into text the
// same parser accepts again, to the same value (ASSIGN compares fields;
// REPORT and checkpoints compare their canonical re-encoding, which must be
// a fixed point).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "replay/checkpoint.hpp"
#include "replay/dist/protocol.hpp"
#include "util/rng.hpp"

namespace ldp::replay {
namespace {

using dist::AssignMsg;
using dist::Frame;
using dist::FrameReader;
using dist::FrameType;

constexpr int kIterations = 400;

// Bytes that matter to line-oriented text parsers: digits and signs,
// separators, hex-float and base64 letters, and a few raw bytes.
constexpr char kAlphabet[] = "0123456789 -+.:,=\n\t/xabcdefnprsuvABZ\x00\xff";

// A few whole tokens that push parsers at their edges.
const char* const kTokens[] = {
    " 18446744073709551616", " -1", " 0", " nan", " inf", " 0x1p+999",
    "\ncounter queries_sent 7", "\ncounter bogus 1", "\nbucket 99999 1",
    "\nhist 3 -5 5 0x1p+2", "\nend\n", "\nresume\n", "\nqueriers 0",
    "\ndistributors 2", "\nsend 1 2 3 10.0.0.1 0 0 2",
    "\npending ::1 tcp 1 1 1 1 -", "\nstream udp:10.0.0.1 1 2 none",
    "\nsent 10.0.0.1 3", " ====", " !!"};

/// One seeded mutation pass over a text sample: overwrite bytes, insert
/// tokens, drop or duplicate a span, truncate.
std::string mutate(const std::string& base, Rng& rng) {
  std::string s = base;
  int edits = static_cast<int>(rng.uniform(1, 6));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    size_t pos = rng.uniform(0, s.size() - 1);
    switch (rng.uniform(0, 4)) {
      case 0:
        s[pos] = kAlphabet[rng.uniform(0, sizeof(kAlphabet) - 2)];
        break;
      case 1:
        s.insert(pos, kTokens[rng.uniform(0, std::size(kTokens) - 1)]);
        break;
      case 2:
        s.erase(pos, rng.uniform(1, 16));
        break;
      case 3: {
        size_t len = rng.uniform(1, 32);
        s.insert(pos, s.substr(pos, len));
        break;
      }
      default:
        s.resize(pos);
        break;
    }
  }
  return s;
}

EngineReport sample_report() {
  EngineReport r;
  r.queries_sent = 3;
  r.responses_received = 2;
  r.max_in_flight = 2;
  r.lifecycle.retries = 1;
  r.impairments.dropped = 1;
  r.replay_start = 1000000;
  r.replay_end = 9000000;
  r.latency_hist.add(2 * kMilli);
  r.latency_hist.add(5 * kMilli);
  SendRecord sr;
  sr.trace_time = 42;
  sr.send_time = 1000042;
  sr.latency = 300000;
  sr.source = IpAddr{Ip4{10, 0, 0, 9}};
  sr.querier = 1;
  sr.retries = 1;
  sr.outcome = QueryOutcome::Answered;
  r.sends.push_back(sr);
  sr.latency = -1;
  sr.outcome = QueryOutcome::TimedOut;
  r.sends.push_back(sr);
  return r;
}

CheckpointState sample_checkpoint() {
  CheckpointState st;
  st.trace_hash = 0x1234abcd;
  st.trace_queries = 400;
  st.partial = sample_report();
  st.partial.sends.clear();
  st.sent["10.0.0.1"] = 17;
  st.sent["10.0.0.2"] = 4;
  fault::FaultStream::Position pos;
  pos.packets = 21;
  pos.corrupt_words = 3;
  st.streams["udp:10.0.0.1"] = pos;
  pos.origin_offset = 250 * kMilli;
  st.streams["tcp:10.0.0.2"] = pos;
  CheckpointPending pq;
  pq.record.source = IpAddr{Ip4{10, 0, 0, 1}};
  pq.record.trace_time = 77;
  pq.record.querier = 3;
  pq.retries_used = 1;
  pq.payload = {0x12, 0x34, 0x01, 0x00, 0x00, 0x01};
  st.pending.push_back(pq);
  pq.transport = Transport::Tcp;
  pq.payload.clear();
  st.pending.push_back(pq);
  return st;
}

AssignMsg sample_assign() {
  AssignMsg m;
  m.index = 1;
  m.count = 3;
  m.server = Endpoint{IpAddr{Ip4{127, 0, 0, 1}}, 5353};
  m.timed = false;
  m.queriers = 4;
  m.heartbeat_interval = 100 * kMilli;
  m.checkpoint_interval = 200 * kMilli;
  m.fault_spec = "loss:0.05,seed:42";
  m.resume = serialize_checkpoint(sample_checkpoint());
  return m;
}

void expect_same_assign(const AssignMsg& a, const AssignMsg& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.server, b.server);
  EXPECT_EQ(a.timed, b.timed);
  EXPECT_EQ(a.queriers, b.queriers);
  EXPECT_EQ(a.heartbeat_interval, b.heartbeat_interval);
  EXPECT_EQ(a.checkpoint_interval, b.checkpoint_interval);
  EXPECT_EQ(a.fault_spec, b.fault_spec);
  EXPECT_EQ(a.resume, b.resume);
}

class ControlFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed(uint64_t salt) const {
    return static_cast<uint64_t>(GetParam()) * 7919 + salt;
  }
};

TEST_P(ControlFuzz, AssignRoundTripsOrIsRejected) {
  Rng rng(seed(1));
  const std::string base = dist::encode_assign(sample_assign());
  ASSERT_TRUE(dist::parse_assign(base).ok());
  size_t accepted = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string text = mutate(base, rng);
    auto m = dist::parse_assign(text);
    if (!m.ok()) continue;
    ++accepted;
    EXPECT_LT(m->index, m->count) << text;
    EXPECT_GT(m->queriers, 0u) << text;
    auto again = dist::parse_assign(dist::encode_assign(*m));
    ASSERT_TRUE(again.ok()) << again.error().message << "\n" << text;
    expect_same_assign(*m, *again);
  }
  EXPECT_GT(accepted, 0u);  // the mutations must leave some inputs valid
}

TEST_P(ControlFuzz, ReportRoundTripsOrIsRejected) {
  Rng rng(seed(2));
  const std::string base = dist::encode_report(sample_report());
  ASSERT_TRUE(dist::parse_report(base).ok());
  size_t accepted = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string text = mutate(base, rng);
    auto r = dist::parse_report(text);
    if (!r.ok()) continue;
    ++accepted;
    std::string canonical = dist::encode_report(*r);
    auto again = dist::parse_report(canonical);
    ASSERT_TRUE(again.ok()) << again.error().message << "\n" << text;
    EXPECT_EQ(dist::encode_report(*again), canonical) << text;
  }
  EXPECT_GT(accepted, 0u);
}

TEST_P(ControlFuzz, CheckpointRoundTripsOrIsRejected) {
  Rng rng(seed(3));
  const std::string base = serialize_checkpoint(sample_checkpoint());
  ASSERT_TRUE(parse_checkpoint(base).ok());
  size_t accepted = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string text = mutate(base, rng);
    auto st = parse_checkpoint(text);
    if (!st.ok()) continue;
    ++accepted;
    std::string canonical = serialize_checkpoint(*st);
    auto again = parse_checkpoint(canonical);
    ASSERT_TRUE(again.ok()) << again.error().message << "\n" << text;
    EXPECT_EQ(serialize_checkpoint(*again), canonical) << text;
  }
  EXPECT_GT(accepted, 0u);
}

/// The bytes send_frame puts on the wire for `frames`, captured through a
/// socket pair so the decoder is checked against the real encoder.
std::string wire_bytes(const std::vector<Frame>& frames) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  for (const auto& f : frames)
    EXPECT_TRUE(dist::send_frame(fds[1], f.type, f.payload).ok());
  ::close(fds[1]);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0)
    out.append(buf, static_cast<size_t>(n));
  ::close(fds[0]);
  return out;
}

/// Feed `wire` to a FrameReader in seeded random chunks; returns the frames
/// decoded before the end of input or the first error.
std::vector<Frame> decode_chunked(const std::string& wire, Rng& rng,
                                  bool* failed) {
  FrameReader reader;
  std::vector<Frame> out;
  *failed = false;
  size_t pos = 0;
  while (pos < wire.size()) {
    size_t n = std::min<size_t>(rng.uniform(1, 64), wire.size() - pos);
    reader.feed(reinterpret_cast<const uint8_t*>(wire.data() + pos), n);
    pos += n;
    while (true) {
      auto f = reader.next();
      if (!f.ok()) {
        *failed = true;
        return out;
      }
      if (!f->has_value()) break;
      EXPECT_LE((*f)->payload.size(), dist::kMaxFramePayload);
      out.push_back(std::move(**f));
    }
  }
  return out;
}

TEST_P(ControlFuzz, FrameReaderRoundTripsOrRejects) {
  Rng rng(seed(4));
  std::vector<Frame> frames = {
      {FrameType::Hello, "worker 1 pid 42 version 3\n"},
      {FrameType::Assign, dist::encode_assign(sample_assign())},
      {FrameType::Heartbeat, ""},
      {FrameType::Report, dist::encode_report(sample_report())},
  };
  const std::string wire = wire_bytes(frames);

  // Clean bytes in any chunking decode to exactly the frames sent.
  for (int iter = 0; iter < 50; ++iter) {
    bool failed = false;
    auto got = decode_chunked(wire, rng, &failed);
    EXPECT_FALSE(failed);
    ASSERT_EQ(got.size(), frames.size());
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(got[i].type, frames[i].type);
      EXPECT_EQ(got[i].payload, frames[i].payload);
    }
  }
  // Mutated bytes decode a prefix of frames, or stop at an error; each
  // decoded frame still parses or is rejected by its payload parser.
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string bytes = wire;
    int edits = static_cast<int>(rng.uniform(1, 4));
    for (int e = 0; e < edits; ++e)
      bytes[rng.uniform(0, bytes.size() - 1)] =
          static_cast<char>(rng.uniform(0, 255));
    if (rng.bernoulli(0.3)) bytes.resize(rng.uniform(0, bytes.size()));
    bool failed = false;
    for (const auto& f : decode_chunked(bytes, rng, &failed)) {
      if (f.type == FrameType::Assign) (void)dist::parse_assign(f.payload);
      if (f.type == FrameType::Report) (void)dist::parse_report(f.payload);
      if (f.type == FrameType::Hello) (void)dist::parse_hello(f.payload);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlFuzz, ::testing::Range(1, 6));

}  // namespace
}  // namespace ldp::replay

// Robustness property tests: the wire-format parsers must never crash,
// hang, or read out of bounds on adversarial input — they parse untrusted
// network bytes — and the command-line spec parsers (--fault, --limits,
// --overload) either reject a mangled spec or print it back in a form that
// parses to the same value. Each TEST_P seed drives hundreds of random
// mutations.
#include <gtest/gtest.h>

#include "dns/message.hpp"
#include "fault/fault.hpp"
#include "server/limits.hpp"
#include "trace/binary.hpp"
#include "trace/pcap.hpp"
#include "trace/text.hpp"
#include "util/rng.hpp"
#include "zone/parser.hpp"

namespace ldp {
namespace {

using dns::Message;
using dns::Name;
using dns::RRType;

std::vector<uint8_t> sample_message_bytes() {
  Message q = Message::make_query(7, *Name::parse("www.example.com"), RRType::A);
  dns::Edns e;
  e.dnssec_ok = true;
  q.edns = e;
  Message r = Message::make_response(q);
  r.answers.push_back(dns::ResourceRecord{*Name::parse("www.example.com"), RRType::A,
                                          dns::RRClass::IN, 300,
                                          dns::Rdata{dns::AData{Ip4{192, 0, 2, 1}}}});
  r.authorities.push_back(dns::ResourceRecord{
      *Name::parse("example.com"), RRType::NS, dns::RRClass::IN, 3600,
      dns::Rdata{dns::NameData{*Name::parse("ns1.example.com")}}});
  return r.to_wire();
}

class WireFuzz : public ::testing::TestWithParam<int> {};

TEST_P(WireFuzz, MutatedMessagesNeverCrash) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  auto base = sample_message_bytes();
  for (int iter = 0; iter < 500; ++iter) {
    auto bytes = base;
    // Mutate 1-8 random bytes, possibly truncate or extend.
    int mutations = static_cast<int>(rng.uniform(1, 8));
    for (int m = 0; m < mutations; ++m) {
      size_t pos = rng.uniform(0, bytes.size() - 1);
      bytes[pos] = static_cast<uint8_t>(rng.uniform(0, 255));
    }
    if (rng.bernoulli(0.3)) bytes.resize(rng.uniform(0, bytes.size()));
    if (rng.bernoulli(0.1)) bytes.insert(bytes.end(), rng.uniform(1, 64), 0xff);

    auto parsed = Message::from_wire(bytes);
    if (parsed.ok()) {
      // Whatever parsed must re-encode without crashing.
      auto rewire = parsed->to_wire();
      EXPECT_FALSE(rewire.empty());
    }
  }
}

TEST_P(WireFuzz, RandomGarbageNeverCrashes) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<uint8_t> bytes(rng.uniform(0, 600));
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.uniform(0, 255));
    auto parsed = Message::from_wire(bytes);
    (void)parsed;  // ok or error; no crash, no hang
  }
}

TEST_P(WireFuzz, CompressionPointerAbuse) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 2000);
  for (int iter = 0; iter < 200; ++iter) {
    // Header claiming one question, then a name made of random pointers.
    ByteWriter w;
    w.u16(1);
    w.u16(0);
    w.u16(1);
    w.u16(0);
    w.u16(0);
    w.u16(0);
    int pointers = static_cast<int>(rng.uniform(1, 30));
    for (int p = 0; p < pointers; ++p)
      w.u16(static_cast<uint16_t>(0xc000 | rng.uniform(0, 0x3fff)));
    w.u8(0);
    w.u16(1);
    w.u16(1);
    auto parsed = Message::from_wire(w.data());
    (void)parsed;  // must terminate (loop guard) without crashing
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Range(1, 6));

// Hand-crafted hostile-name corpus: each case pins one decompression guard
// in dns::Name::from_wire with an exact reject (or a boundary accept), so a
// refactor that silently relaxes a bound fails here rather than only under
// random fuzz luck.
Result<Name> parse_name_at(std::span<const uint8_t> bytes, size_t at) {
  ByteReader rd(bytes);
  EXPECT_TRUE(rd.seek(at).ok());
  return Name::from_wire(rd);
}

TEST(HostileNameCorpus, SelfPointerRejected) {
  // A pointer targeting its own first byte: strictly-backward rule kills it.
  std::vector<uint8_t> bytes{0xc0, 0x00};
  auto name = parse_name_at(bytes, 0);
  ASSERT_FALSE(name.ok());
  EXPECT_NE(name.error().message.find("forward"), std::string::npos);
}

TEST(HostileNameCorpus, ForwardPointerRejected) {
  std::vector<uint8_t> bytes{0xc0, 0x08, 0, 0, 0, 0, 0, 0, 0x00};
  auto name = parse_name_at(bytes, 0);
  ASSERT_FALSE(name.ok());
  EXPECT_NE(name.error().message.find("forward"), std::string::npos);
}

TEST(HostileNameCorpus, MutualPointerLoopRejected) {
  // 0 -> 2 and 2 -> 0: the second hop is non-backward, so the loop is cut
  // on its first revisit rather than spinning until the hop cap.
  std::vector<uint8_t> bytes{0xc0, 0x02, 0xc0, 0x00};
  auto name = parse_name_at(bytes, 2);
  ASSERT_FALSE(name.ok());
}

// Builds root at offset 0 and `count` chained pointers, each targeting the
// previous one; returns the buffer (parse starts at the last pointer).
std::vector<uint8_t> backward_pointer_chain(int count) {
  ByteWriter w;
  w.u8(0);  // offset 0: root
  for (int i = 0; i < count; ++i) {
    size_t target = (i == 0) ? 0 : static_cast<size_t>(1 + 2 * (i - 1));
    w.u16(static_cast<uint16_t>(0xc000 | target));
  }
  return std::move(w).take();
}

TEST(HostileNameCorpus, PointerChainPastHopCapRejected) {
  auto bytes = backward_pointer_chain(70);  // all-backward, but 70 hops
  auto name = parse_name_at(bytes, bytes.size() - 2);
  ASSERT_FALSE(name.ok());
  EXPECT_NE(name.error().message.find("chain too long"), std::string::npos);
}

TEST(HostileNameCorpus, PointerChainWithinHopCapParses) {
  auto bytes = backward_pointer_chain(60);
  auto name = parse_name_at(bytes, bytes.size() - 2);
  ASSERT_TRUE(name.ok()) << name.error().message;
  EXPECT_TRUE(name->is_root());
}

// `sizes` label lengths followed by root, all filled with 'a'.
std::vector<uint8_t> label_run(std::initializer_list<int> sizes) {
  ByteWriter w;
  for (int s : sizes) {
    w.u8(static_cast<uint8_t>(s));
    for (int i = 0; i < s; ++i) w.u8('a');
  }
  w.u8(0);
  return std::move(w).take();
}

TEST(HostileNameCorpus, DecompressionPast255OctetsRejected) {
  // 63+63+63+63 labels = 256 wire octets before the root byte.
  auto bytes = label_run({63, 63, 63, 63});
  auto name = parse_name_at(bytes, 0);
  ASSERT_FALSE(name.ok());
  EXPECT_NE(name.error().message.find("255"), std::string::npos);
}

TEST(HostileNameCorpus, Exactly255OctetNameParses) {
  // 63+63+63+61 labels + root = exactly 255 octets: the legal maximum.
  auto bytes = label_run({63, 63, 63, 61});
  auto name = parse_name_at(bytes, 0);
  ASSERT_TRUE(name.ok()) << name.error().message;
  EXPECT_EQ(name->wire_length(), 255u);
}

TEST(HostileNameCorpus, ReservedLabelTypesRejected) {
  for (uint8_t tag : {uint8_t{0x40}, uint8_t{0x80}}) {
    std::vector<uint8_t> bytes{static_cast<uint8_t>(tag | 0x01), 'a', 0x00};
    auto name = parse_name_at(bytes, 0);
    ASSERT_FALSE(name.ok());
    EXPECT_NE(name.error().message.find("label type"), std::string::npos);
  }
}

TEST(HostileNameCorpus, TruncatedLabelRejected) {
  std::vector<uint8_t> bytes{0x05, 'a', 'b'};  // claims 5, delivers 2
  EXPECT_FALSE(parse_name_at(bytes, 0).ok());
}

TEST(HostileNameCorpus, ValidCompressedNameRoundTrips) {
  // "example.com" at offset 2, then "www" + pointer back to it.
  ByteWriter w;
  w.u16(0);  // padding so the target is a genuine backward offset
  w.u8(7);
  for (char c : std::string_view("example")) w.u8(static_cast<uint8_t>(c));
  w.u8(3);
  for (char c : std::string_view("com")) w.u8(static_cast<uint8_t>(c));
  w.u8(0);
  size_t www_at = w.size();
  w.u8(3);
  for (char c : std::string_view("www")) w.u8(static_cast<uint8_t>(c));
  w.u16(0xc000 | 2);  // pointer to "example.com"
  auto bytes = std::move(w).take();
  auto name = parse_name_at(bytes, www_at);
  ASSERT_TRUE(name.ok()) << name.error().message;
  EXPECT_EQ(name->to_string(), Name::parse("www.example.com")->to_string());
}

TEST(HostileNameCorpus, MessageWithPointerIntoHeaderTerminates) {
  // A question name pointing into the fixed header: whatever those bytes
  // decode to, parsing must terminate without crashing.
  ByteWriter w;
  w.u16(0x1234);
  w.u16(0);
  w.u16(1);
  w.u16(0);
  w.u16(0);
  w.u16(0);
  w.u16(0xc000 | 0);  // name = pointer to offset 0 (the ID field)
  w.u16(1);
  w.u16(1);
  auto parsed = Message::from_wire(w.data());
  (void)parsed;  // ok or error; no crash, no hang
}

// Seed-corpus round-trip through the fault layer's corrupt impairment: the
// exact byte-flipping the replay/proxy/server paths apply to live packets
// must never crash the wire parser, and whatever still parses must
// re-encode. This ties the fuzzer to the corruption the fault scenarios
// actually generate (same FaultStream draws), not just to uniform random
// mutation.
class FaultCorruptFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FaultCorruptFuzz, CorruptedWireMessagesNeverCrashParsing) {
  fault::FaultSpec spec;
  spec.corrupt = 1.0;
  spec.seed = static_cast<uint64_t>(GetParam());
  // Sweep the corruption intensity: a single flipped byte up to heavy
  // mangling of a quarter of the message.
  for (size_t max_bytes : {size_t{1}, size_t{4}, size_t{16}, size_t{64}}) {
    spec.corrupt_max_bytes = max_bytes;
    fault::FaultStream stream(spec, "fuzz:corrupt");
    auto base = sample_message_bytes();
    for (int iter = 0; iter < 300; ++iter) {
      auto bytes = base;
      stream.corrupt(bytes);
      EXPECT_EQ(bytes.size(), base.size());  // corruption flips, never resizes
      EXPECT_NE(bytes, base);                // and always changes something
      auto parsed = Message::from_wire(bytes);
      if (parsed.ok()) {
        auto rewire = parsed->to_wire();
        EXPECT_FALSE(rewire.empty());
      }
    }
  }
}

TEST_P(FaultCorruptFuzz, CorruptedQueriesNeverCrashParsing) {
  fault::FaultSpec spec;
  spec.corrupt = 1.0;
  spec.seed = static_cast<uint64_t>(GetParam()) + 500;
  spec.corrupt_max_bytes = 8;
  fault::FaultStream stream(spec, "fuzz:query");
  Message q = Message::make_query(9, *Name::parse("a.b.c.example.com"),
                                  RRType::AAAA);
  auto base = q.to_wire();
  for (int iter = 0; iter < 500; ++iter) {
    auto bytes = base;
    stream.corrupt(bytes);
    auto parsed = Message::from_wire(bytes);
    if (parsed.ok()) (void)parsed->to_wire();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultCorruptFuzz, ::testing::Range(1, 6));

class PcapFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PcapFuzz, MutatedCapturesNeverCrash) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  trace::PcapWriter w;
  Message q = Message::make_query(1, *Name::parse("x.example"), RRType::A);
  for (int i = 0; i < 5; ++i) {
    w.add(trace::make_query_record(i * kMilli,
                                   Endpoint{IpAddr{Ip4{10, 0, 0, 1}}, 40000},
                                   Endpoint{IpAddr{Ip4{10, 0, 0, 2}}, 53}, q));
  }
  auto base = std::move(w).take();
  for (int iter = 0; iter < 300; ++iter) {
    auto bytes = base;
    int mutations = static_cast<int>(rng.uniform(1, 12));
    for (int m = 0; m < mutations; ++m)
      bytes[rng.uniform(24, bytes.size() - 1)] = static_cast<uint8_t>(rng.uniform(0, 255));
    if (rng.bernoulli(0.3)) bytes.resize(rng.uniform(24, bytes.size()));
    auto reader = trace::PcapReader::from_bytes(bytes);
    if (!reader.ok()) continue;
    // Either drains cleanly or stops with an error; never crashes/loops.
    (void)reader->read_all();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcapFuzz, ::testing::Range(1, 4));

class TextFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TextFuzz, MangledTraceLinesNeverCrash) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const std::string base =
      "1.000000 192.0.2.1 40000 192.0.2.53 53 UDP 7 www.example.com. IN A rd,do 4096";
  for (int iter = 0; iter < 500; ++iter) {
    std::string line = base;
    int mutations = static_cast<int>(rng.uniform(1, 6));
    for (int m = 0; m < mutations; ++m) {
      size_t pos = rng.uniform(0, line.size() - 1);
      line[pos] = static_cast<char>(rng.uniform(32, 126));
    }
    auto parsed = trace::record_from_text(line);
    if (parsed.ok()) {
      // Survivors must round-trip.
      auto back = trace::record_to_text(*parsed);
      EXPECT_TRUE(back.ok());
    }
  }
}

TEST_P(TextFuzz, MangledZoneFilesNeverCrash) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 500);
  const std::string base = R"($ORIGIN example.com.
$TTL 3600
@ IN SOA ns1 admin 1 7200 900 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.1
www IN A 192.0.2.80
txt IN TXT "hello world"
)";
  for (int iter = 0; iter < 300; ++iter) {
    std::string text = base;
    int mutations = static_cast<int>(rng.uniform(1, 10));
    for (int m = 0; m < mutations; ++m) {
      size_t pos = rng.uniform(0, text.size() - 1);
      text[pos] = static_cast<char>(rng.uniform(32, 126));
    }
    auto parsed = zone::parse_zone(text);
    (void)parsed;  // ok or line-numbered error; no crash
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextFuzz, ::testing::Range(1, 4));

class BinaryFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BinaryFuzz, MutatedStreamsErrorCleanly) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  trace::BinaryWriter w;
  Message q = Message::make_query(1, *Name::parse("y.example"), RRType::A);
  for (int i = 0; i < 5; ++i) {
    w.add(trace::make_query_record(i, Endpoint{IpAddr{Ip4{10, 0, 0, 1}}, 1},
                                   Endpoint{IpAddr{Ip4{10, 0, 0, 2}}, 53}, q));
  }
  auto base = std::move(w).take();
  for (int iter = 0; iter < 300; ++iter) {
    auto bytes = base;
    bytes[rng.uniform(6, bytes.size() - 1)] = static_cast<uint8_t>(rng.uniform(0, 255));
    if (rng.bernoulli(0.3)) bytes.resize(rng.uniform(6, bytes.size()));
    auto reader = trace::BinaryReader::from_bytes(bytes);
    if (!reader.ok()) continue;
    while (true) {
      auto rec = reader->next();
      if (!rec.ok() || !rec->has_value()) break;  // clean error or EOF
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryFuzz, ::testing::Range(1, 4));

// Spec mini-languages: each mutant of a canonical spec must be rejected,
// or parse to a value whose to_string() parses back to that same value —
// the printed form is what ldp-replay hands its workers, so a lossy print
// would replay a different scenario there.
class SpecFuzz : public ::testing::TestWithParam<int> {};

/// A mangled copy of `base`: a few characters replaced (half of them from
/// the specs' own alphabet, so mutants stay near the grammar), then maybe a
/// run of digits inserted (long numbers: precision and overflow) and maybe
/// a truncation.
std::string mutate_spec(Rng& rng, const std::string& base) {
  static constexpr std::string_view kSpecChars = "0123456789.:,-/smun";
  std::string text = base;
  int mutations = static_cast<int>(rng.uniform(1, 4));
  for (int m = 0; m < mutations; ++m) {
    char c = rng.bernoulli(0.5)
                 ? kSpecChars[rng.uniform(0, kSpecChars.size() - 1)]
                 : static_cast<char>(rng.uniform(32, 126));
    text[rng.uniform(0, text.size() - 1)] = c;
  }
  if (rng.bernoulli(0.3)) {
    std::string digits(rng.uniform(1, 24), '0');
    for (auto& d : digits) d = static_cast<char>('0' + rng.uniform(0, 9));
    text.insert(rng.uniform(0, text.size()), digits);
  }
  if (rng.bernoulli(0.3)) text.resize(rng.uniform(0, text.size()));
  return text;
}

/// Drive 500 mutants of `base` through `parse`; returns how many parsed.
template <typename Parse, typename Same>
int expect_reject_or_round_trip(int seed, const std::string& base, Parse parse,
                                Same same) {
  Rng rng(static_cast<uint64_t>(seed));
  int accepted = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string text = mutate_spec(rng, base);
    auto parsed = parse(text);
    if (!parsed.ok()) continue;
    ++accepted;
    std::string printed = parsed->to_string();
    auto again = parse(printed);
    if (!again.ok()) {
      ADD_FAILURE() << "'" << text << "' printed as '" << printed
                    << "', which is rejected: " << again.error().message;
      continue;
    }
    EXPECT_TRUE(same(*parsed, *again))
        << "'" << text << "' printed as '" << printed << "' reads back as '"
        << again->to_string() << "'";
  }
  return accepted;
}

TEST_P(SpecFuzz, FaultSpecsRejectOrRoundTrip) {
  auto canonical = fault::parse_fault_spec(
      "loss:0.05,dup:0.01,reorder:0.02,gap:20ms,corrupt:0.01,delay:5ms,"
      "jitter:2ms,blackhole:2s-3s,flap:500ms/100ms,slow_client:0.3,"
      "drip:50ms,seed:42");
  ASSERT_TRUE(canonical.ok()) << canonical.error().message;
  // gap and drip take effect, and print, only alongside reorder and
  // slow_client; every other field must survive the round trip.
  auto same = [](const fault::FaultSpec& a, const fault::FaultSpec& b) {
    return a.drop == b.drop && a.dup == b.dup && a.reorder == b.reorder &&
           a.corrupt == b.corrupt && a.delay == b.delay &&
           a.jitter == b.jitter && a.blackhole_start == b.blackhole_start &&
           a.blackhole_end == b.blackhole_end &&
           a.flap_period == b.flap_period && a.flap_down == b.flap_down &&
           a.seed == b.seed && a.corrupt_max_bytes == b.corrupt_max_bytes &&
           a.slow_client == b.slow_client &&
           (a.reorder == 0 || a.reorder_gap == b.reorder_gap) &&
           (a.slow_client == 0 || a.slow_drip == b.slow_drip);
  };
  int accepted = expect_reject_or_round_trip(
      GetParam(), canonical->to_string(), fault::parse_fault_spec, same);
  EXPECT_GT(accepted, 0);
}

TEST_P(SpecFuzz, LimitsSpecsRejectOrRoundTrip) {
  auto canonical = server::parse_limits_spec(
      "max-conns:64,quota:4,read-deadline:2s,write-deadline:1500ms,"
      "max-partial:4096");
  ASSERT_TRUE(canonical.ok()) << canonical.error().message;
  auto same = [](const server::LimitsConfig& a, const server::LimitsConfig& b) {
    return a.max_connections == b.max_connections &&
           a.per_client_quota == b.per_client_quota &&
           a.read_deadline == b.read_deadline &&
           a.write_deadline == b.write_deadline &&
           a.max_partial_bytes == b.max_partial_bytes;
  };
  int accepted = expect_reject_or_round_trip(
      GetParam(), canonical->to_string(), server::parse_limits_spec, same);
  EXPECT_GT(accepted, 0);
}

TEST_P(SpecFuzz, OverloadSpecsRejectOrRoundTrip) {
  auto canonical = server::parse_overload_spec("policy:refuse,high:48,low:32");
  ASSERT_TRUE(canonical.ok()) << canonical.error().message;
  auto same = [](const server::OverloadConfig& a,
                 const server::OverloadConfig& b) {
    return a.policy == b.policy && a.high_watermark == b.high_watermark &&
           a.low_watermark == b.low_watermark;
  };
  int accepted = expect_reject_or_round_trip(
      GetParam(), canonical->to_string(), server::parse_overload_spec, same);
  EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecFuzz, ::testing::Range(1, 6));

// The two faults SpecFuzz found, pinned: a probability printed at six
// significant digits read back as another probability, and a duration past
// 2^63 ns wrapped to a negative one that to_string() then dropped.
TEST(SpecCorpus, LongProbabilityPrintsExactly) {
  auto spec = fault::parse_fault_spec("loss:0.056655348915827,seed:5");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  EXPECT_EQ(spec->to_string(), "loss:0.056655348915827,seed:5");
  EXPECT_EQ(fault::parse_fault_spec("dup:0.05")->to_string(), "dup:0.05,seed:1");
}

TEST(SpecCorpus, DurationPastTimeNsRejected) {
  EXPECT_FALSE(fault::parse_duration("9223372037s").ok());
  EXPECT_TRUE(fault::parse_duration("9223372036s").ok());
  EXPECT_FALSE(fault::parse_fault_spec("delay:99999999999999999999ms").ok());
  EXPECT_FALSE(server::parse_limits_spec("read-deadline:2146262257617s").ok());
}

}  // namespace
}  // namespace ldp

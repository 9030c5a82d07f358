// Unit tests for the util layer: Result, byte codecs, strings, stats, ip,
// base64, rng distributions.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <thread>

#include "util/base64.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/ip.hpp"
#include "util/metrics.hpp"
#include "util/queue.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace ldp {
namespace {

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> bad = Err("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(Result, VoidSpecialization) {
  Result<void> ok = Ok();
  EXPECT_TRUE(ok.ok());
  Result<void> bad = Err("broken");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "broken");
}

TEST(ByteReader, BigEndianIntegers) {
  std::vector<uint8_t> data = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  ByteReader rd(data);
  EXPECT_EQ(*rd.u16(), 0x0102u);
  EXPECT_EQ(*rd.u32(), 0x03040506u);
  EXPECT_EQ(rd.remaining(), 2u);
  EXPECT_FALSE(rd.u32().ok());  // only 2 bytes left
}

TEST(ByteReader, LittleEndianIntegers) {
  std::vector<uint8_t> data = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06};
  ByteReader rd(data);
  EXPECT_EQ(*rd.u16_le(), 0x0201u);
  EXPECT_EQ(*rd.u32_le(), 0x06050403u);
}

TEST(ByteReader, SeekAndSkip) {
  std::vector<uint8_t> data(10, 0xaa);
  ByteReader rd(data);
  EXPECT_TRUE(rd.skip(5).ok());
  EXPECT_EQ(rd.pos(), 5u);
  EXPECT_FALSE(rd.skip(6).ok());
  EXPECT_TRUE(rd.seek(0).ok());
  EXPECT_FALSE(rd.seek(11).ok());
  EXPECT_TRUE(rd.seek(10).ok());  // end is a valid cursor
  EXPECT_TRUE(rd.empty());
}

TEST(ByteWriter, RoundTripAndPatch) {
  ByteWriter w;
  w.u16(0);  // placeholder
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.patch_u16(0, 0xcafe);
  ByteReader rd(w.data());
  EXPECT_EQ(*rd.u16(), 0xcafeu);
  EXPECT_EQ(*rd.u32(), 0xdeadbeefu);
  EXPECT_EQ(*rd.u64(), 0x0123456789abcdefull);
}

TEST(Hex, RoundTrip) {
  std::vector<uint8_t> data = {0x00, 0x7f, 0xff, 0x10};
  EXPECT_EQ(to_hex(data), "007fff10");
  auto back = from_hex("007fff10");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
  EXPECT_FALSE(from_hex("abc").ok());
  EXPECT_FALSE(from_hex("zz").ok());
}

TEST(Base64, RoundTrip) {
  std::vector<uint8_t> data;
  for (int i = 0; i < 100; ++i) data.push_back(static_cast<uint8_t>(i * 7));
  auto enc = base64_encode(data);
  auto dec = base64_decode(enc);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, data);
}

TEST(Base64, KnownVectors) {
  // RFC 4648 test vectors.
  auto enc = [](std::string_view s) {
    return base64_encode(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(s.data()), s.size()));
  };
  EXPECT_EQ(enc(""), "");
  EXPECT_EQ(enc("f"), "Zg==");
  EXPECT_EQ(enc("fo"), "Zm8=");
  EXPECT_EQ(enc("foo"), "Zm9v");
  EXPECT_EQ(enc("foobar"), "Zm9vYmFy");
}

TEST(Base64, IgnoresWhitespaceRejectsJunk) {
  auto dec = base64_decode("Zm9v\n YmFy");
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec->size(), 6u);
  EXPECT_FALSE(base64_decode("Z!9v").ok());
  EXPECT_FALSE(base64_decode("Zg==Zg").ok());  // data after padding
}

TEST(Strings, SplitPreservesEmptyFields) {
  auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsSkipsRuns) {
  auto parts = split_ws("  foo\t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[1], "bar");
  EXPECT_EQ(parts[2], "baz");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("WwW.ExAmPlE"), "www.example");
  EXPECT_TRUE(iequals("Foo", "fOO"));
  EXPECT_FALSE(iequals("foo", "fooo"));
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(*parse_u64("12345"), 12345u);
  EXPECT_FALSE(parse_u64("").ok());
  EXPECT_FALSE(parse_u64("12x").ok());
  EXPECT_FALSE(parse_u64("99999999999999999999999").ok());
}

TEST(Strings, ParseU64InRange) {
  EXPECT_EQ(*parse_u64_in("64", 1, 64), 64u);
  EXPECT_EQ(*parse_u64_in("0", 0, 65535), 0u);
  // Not plain digits: sign, space, junk, empty.
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "0x10", "banana"}) {
    auto v = parse_u64_in(bad, 0, 65535);
    ASSERT_FALSE(v.ok()) << bad;
    EXPECT_NE(v.error().message.find("plain integer"), std::string::npos) << bad;
  }
  // Digits out of range, overflow included: never wrapped into range.
  for (const char* bad : {"0", "65", "99999999999999999999999"}) {
    auto v = parse_u64_in(bad, 1, 64);
    ASSERT_FALSE(v.ok()) << bad;
    EXPECT_NE(v.error().message.find("between 1 and 64"), std::string::npos) << bad;
  }
  EXPECT_FALSE(parse_u64_in("70000", 0, 65535).ok());
}

TEST(Strings, ParseNumberIsStrict) {
  EXPECT_DOUBLE_EQ(*parse_number("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(*parse_number("0"), 0.0);
  EXPECT_DOUBLE_EQ(*parse_number("12"), 12.0);
  // strtod would read each of these as some number; a knob must not.
  for (const char* bad : {"", "x", "0.5x", "1.2.3", "-1", "+1", ".5", " 1",
                          "nan", "inf", "1e999"}) {
    auto v = parse_number(bad);
    ASSERT_FALSE(v.ok()) << bad;
    EXPECT_NE(v.error().message.find("non-negative number"), std::string::npos)
        << bad;
  }
}

TEST(Strings, SecondsNsRoundTrip) {
  EXPECT_EQ(*parse_seconds_ns("1.5"), 1500000000);
  EXPECT_EQ(*parse_seconds_ns("0.000001"), 1000);
  EXPECT_EQ(*parse_seconds_ns("42"), 42000000000);
  EXPECT_FALSE(parse_seconds_ns("-1").ok());
  EXPECT_FALSE(parse_seconds_ns("1.0000000001").ok());
  EXPECT_EQ(format_seconds_ns(1500000000), "1.500000");
  EXPECT_EQ(format_seconds_ns(parse_seconds_ns("12.345678").value()), "12.345678");
}

TEST(Ip4, ParseFormat) {
  auto a = Ip4::parse("192.0.2.1");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->to_string(), "192.0.2.1");
  EXPECT_EQ(a->value(), 0xc0000201u);
  EXPECT_FALSE(Ip4::parse("256.0.0.1").ok());
  EXPECT_FALSE(Ip4::parse("1.2.3").ok());
  EXPECT_FALSE(Ip4::parse("a.b.c.d").ok());
}

TEST(Ip6, ParseFormatCanonical) {
  auto a = Ip6::parse("2001:db8::1");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->to_string(), "2001:db8::1");
  auto b = Ip6::parse("::");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->to_string(), "::");
  auto c = Ip6::parse("2001:0DB8:0:0:1:0:0:1");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->to_string(), "2001:db8::1:0:0:1");
  EXPECT_FALSE(Ip6::parse("1::2::3").ok());
  EXPECT_FALSE(Ip6::parse("12345::").ok());
}

TEST(IpAddr, MixedOrderingAndHash) {
  IpAddr v4{*Ip4::parse("10.0.0.1")};
  IpAddr v6{*Ip6::parse("::1")};
  EXPECT_TRUE(v4.is_v4());
  EXPECT_TRUE(v6.is_v6());
  EXPECT_FALSE(v4 == v6);
  EXPECT_TRUE(v4 < v6);  // v4 sorts before v6
  IpAddr v4b{*Ip4::parse("10.0.0.1")};
  EXPECT_EQ(v4.hash(), v4b.hash());
  EXPECT_TRUE(v4 == v4b);
}

TEST(Endpoint, Formatting) {
  Endpoint e{IpAddr{Ip4{192, 0, 2, 53}}, 53};
  EXPECT_EQ(e.to_string(), "192.0.2.53:53");
  Endpoint e6{IpAddr{*Ip6::parse("::1")}, 853};
  EXPECT_EQ(e6.to_string(), "[::1]:853");
}

TEST(Sampler, QuantilesExact) {
  Sampler s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.quantile(1.0), 100.0, 1e-9);
  auto sum = s.summary();
  EXPECT_EQ(sum.count, 100u);
  EXPECT_NEAR(sum.mean, 50.5, 1e-9);
  EXPECT_NEAR(sum.median, 50.5, 1e-9);
  EXPECT_LT(sum.q1, sum.median);
  EXPECT_LT(sum.median, sum.q3);
  EXPECT_LT(sum.p5, sum.q1);
  EXPECT_LT(sum.q3, sum.p95);
}

TEST(Sampler, CdfMonotone) {
  Sampler s;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) s.add(rng.uniform01());
  auto cdf = s.cdf(100);
  ASSERT_FALSE(cdf.empty());
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second + 1e-12);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(RateCounter, BucketsWithGaps) {
  RateCounter rc(1000);
  rc.add(100);
  rc.add(900);
  rc.add(3500);
  auto series = rc.series();
  ASSERT_EQ(series.size(), 4u);  // windows 0..3
  EXPECT_EQ(series[0], 2u);
  EXPECT_EQ(series[1], 0u);
  EXPECT_EQ(series[2], 0u);
  EXPECT_EQ(series[3], 1u);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, LognormalMatchesTargetMoments) {
  Rng rng(1);
  double mean = 0.18, sd = 0.35;  // Rec-17 inter-arrival stats from Table 1
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = rng.lognormal_mean_sd(mean, sd);
    sum += v;
    sum2 += v * v;
  }
  double m = sum / n;
  double s = std::sqrt(sum2 / n - m * m);
  EXPECT_NEAR(m, mean, 0.01);
  EXPECT_NEAR(s, sd, 0.05);
}

TEST(Zipf, HeavyTail) {
  // With s≈1 over 100k clients, the top 1% of ranks should absorb a large
  // fraction of draws — the B-Root client skew the paper reports.
  Rng rng(3);
  ZipfSampler zipf(100000, 1.0);
  const int n = 200000;
  int top1pct = 0;
  for (int i = 0; i < n; ++i) {
    if (zipf.sample(rng) < 1000) ++top1pct;
  }
  double frac = static_cast<double>(top1pct) / n;
  EXPECT_GT(frac, 0.5);
  EXPECT_LT(frac, 0.95);
}

TEST(Zipf, CoversAllRanks) {
  Rng rng(9);
  ZipfSampler zipf(10, 0.8);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 20000; ++i) ++hits[zipf.sample(rng)];
  for (int h : hits) EXPECT_GT(h, 0);
  // Monotone non-increasing popularity by rank (statistically).
  EXPECT_GT(hits[0], hits[9]);
}

TEST(BoundedQueue, PushPopFifo) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(*q.pop(), 2);
}

TEST(BoundedQueue, CloseDrainsThenReturnsNullopt) {
  BoundedQueue<int> q(4);
  q.push(7);
  q.close();
  EXPECT_FALSE(q.push(8));  // rejected after close
  EXPECT_EQ(*q.pop(), 7);   // buffered items still drain
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.closed_and_empty());
}

// Race regression: close() while producers are blocked in push() on a full
// queue must wake every one of them with push() == false, never deadlock,
// and every pop must observe either a real item or the shutdown nullopt.
TEST(BoundedQueue, CloseWhilePushersBlockedOnFullQueue) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));  // queue now full

  constexpr int kProducers = 4;
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int i = 0; i < kProducers; ++i) {
    producers.emplace_back([&q, &rejected, i] {
      if (!q.push(100 + i)) rejected.fetch_add(1);
    });
  }
  // Let the producers reach the full-queue wait, then close underneath them.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  for (auto& t : producers) t.join();

  // All blocked pushers must have been rejected (capacity never freed up).
  EXPECT_EQ(rejected.load(), kProducers);
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(*q.pop(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

// Consumers blocked in pop() on an empty queue must all wake on close().
TEST(BoundedQueue, CloseWakesBlockedPoppers) {
  BoundedQueue<int> q(4);
  constexpr int kConsumers = 4;
  std::atomic<int> got_nullopt{0};
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int i = 0; i < kConsumers; ++i) {
    consumers.emplace_back([&q, &got_nullopt] {
      if (!q.pop().has_value()) got_nullopt.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(got_nullopt.load(), kConsumers);
}

TEST(Histogram, QuantilesAndMerge) {
  metrics::Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<TimeNs>(i) * kMilli);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), kMilli);
  EXPECT_EQ(h.max(), 100 * kMilli);
  // Log-bucketed: quantiles are approximate but must land within the
  // enclosing power-of-two bucket of the exact value.
  double p50 = static_cast<double>(h.quantile(0.5));
  EXPECT_GT(p50, 25.0 * kMilli);
  EXPECT_LT(p50, 101.0 * kMilli);
  EXPECT_GE(h.quantile(0.0), h.min());
  EXPECT_LE(h.quantile(1.0), h.max());

  metrics::Histogram other;
  other.add(kSecond);
  h.merge(other);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_EQ(h.max(), kSecond);
}

TEST(Histogram, EmptyIsSafe) {
  metrics::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_FALSE(h.summary_ms().empty());
}

// Merge with an empty histogram in either order must neither invent
// samples nor clobber min/max (regression: merging a non-empty `other`
// into an empty `this` once inherited this->min_/max_ zeroes; the guards
// in merge() make both directions exact no-ops/copies).
TEST(Histogram, MergeEmptyOtherPreservesMinMax) {
  metrics::Histogram h;
  h.add(5);
  h.add(90);
  metrics::Histogram empty;
  h.merge(empty);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 90);
}

TEST(Histogram, MergeIntoEmptyCopiesMinMax) {
  metrics::Histogram h;
  h.add(5);
  h.add(90);
  metrics::Histogram empty;
  empty.merge(h);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.min(), 5);
  EXPECT_EQ(empty.max(), 90);
  // ...and a later real merge still widens correctly.
  metrics::Histogram more;
  more.add(1);
  more.add(200);
  empty.merge(more);
  EXPECT_EQ(empty.count(), 4u);
  EXPECT_EQ(empty.min(), 1);
  EXPECT_EQ(empty.max(), 200);
}

TEST(Histogram, MergeTwoEmptiesStaysEmpty) {
  metrics::Histogram a, b;
  a.merge(b);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.min(), 0);
  EXPECT_EQ(a.max(), 0);
}

TEST(LifecycleCounters, MergeSums) {
  metrics::LifecycleCounters a, b;
  a.timeouts = 3;
  a.retries = 2;
  b.timeouts = 1;
  b.expired = 5;
  b.duplicate_ids = 4;
  a.merge(b);
  EXPECT_EQ(a.timeouts, 4u);
  EXPECT_EQ(a.retries, 2u);
  EXPECT_EQ(a.expired, 5u);
  EXPECT_EQ(a.duplicate_ids, 4u);
}

TEST(Result, CarriesSysErrno) {
  Result<int> bad = Err("recvfrom: would block", EAGAIN);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().sys_errno, EAGAIN);
  Result<int> plain = Err("no errno");
  EXPECT_EQ(plain.error().sys_errno, 0);
}

}  // namespace
}  // namespace ldp

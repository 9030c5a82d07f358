// Unit tests for the deterministic impairment layer (ldp::fault): the spec
// mini-language parser (round-trips, unit handling, error reporting), the
// named-stream seeding, the fixed-draw determinism contract FaultStream
// promises its consumers, the time-window impairments (blackhole, flap),
// and deterministic payload corruption.
#include <gtest/gtest.h>

#include "fault/fault.hpp"

namespace ldp::fault {
namespace {

// --- spec parsing -----------------------------------------------------------

TEST(FaultSpecT, EmptySpecIsTransparent) {
  auto spec = parse_fault_spec("");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->enabled());
  EXPECT_EQ(spec->seed, 1u);
}

TEST(FaultSpecT, ParsesEveryKey) {
  auto spec = parse_fault_spec(
      "loss:0.05,dup:0.01,reorder:0.02,gap:20ms,delay:5ms,jitter:2ms,"
      "corrupt:0.01,blackhole:2s-3s,flap:500ms/100ms,seed:42");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  EXPECT_DOUBLE_EQ(spec->drop, 0.05);
  EXPECT_DOUBLE_EQ(spec->dup, 0.01);
  EXPECT_DOUBLE_EQ(spec->reorder, 0.02);
  EXPECT_DOUBLE_EQ(spec->corrupt, 0.01);
  EXPECT_EQ(spec->reorder_gap, 20 * kMilli);
  EXPECT_EQ(spec->delay, 5 * kMilli);
  EXPECT_EQ(spec->jitter, 2 * kMilli);
  EXPECT_EQ(spec->blackhole_start, 2 * kSecond);
  EXPECT_EQ(spec->blackhole_end, 3 * kSecond);
  EXPECT_EQ(spec->flap_period, 500 * kMilli);
  EXPECT_EQ(spec->flap_down, 100 * kMilli);
  EXPECT_EQ(spec->seed, 42u);
  EXPECT_TRUE(spec->enabled());
}

TEST(FaultSpecT, DurationUnits) {
  auto spec = parse_fault_spec("delay:250");  // bare number = ms
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->delay, 250 * kMilli);
  spec = parse_fault_spec("delay:250us,jitter:10ns,gap:1s");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->delay, 250 * kMicro);
  EXPECT_EQ(spec->jitter, 10);
  EXPECT_EQ(spec->reorder_gap, kSecond);
}

TEST(FaultSpecT, DropIsAnAliasForLoss) {
  auto spec = parse_fault_spec("drop:0.5");
  ASSERT_TRUE(spec.ok());
  EXPECT_DOUBLE_EQ(spec->drop, 0.5);
}

TEST(FaultSpecT, ToStringRoundTrips) {
  auto spec = parse_fault_spec(
      "loss:0.05,dup:0.01,reorder:0.02,gap:20ms,corrupt:0.01,delay:5ms,"
      "jitter:2ms,blackhole:2s-3s,flap:500ms/100ms,seed:42");
  ASSERT_TRUE(spec.ok());
  auto again = parse_fault_spec(spec->to_string());
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_DOUBLE_EQ(again->drop, spec->drop);
  EXPECT_DOUBLE_EQ(again->dup, spec->dup);
  EXPECT_DOUBLE_EQ(again->reorder, spec->reorder);
  EXPECT_DOUBLE_EQ(again->corrupt, spec->corrupt);
  EXPECT_EQ(again->reorder_gap, spec->reorder_gap);
  EXPECT_EQ(again->delay, spec->delay);
  EXPECT_EQ(again->jitter, spec->jitter);
  EXPECT_EQ(again->blackhole_start, spec->blackhole_start);
  EXPECT_EQ(again->blackhole_end, spec->blackhole_end);
  EXPECT_EQ(again->flap_period, spec->flap_period);
  EXPECT_EQ(again->flap_down, spec->flap_down);
  EXPECT_EQ(again->seed, spec->seed);
}

TEST(FaultSpecT, SlowClientKnobParsesAndRoundTrips) {
  auto spec = parse_fault_spec("slow_client:0.3,drip:50ms,seed:7");
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  EXPECT_DOUBLE_EQ(spec->slow_client, 0.3);
  EXPECT_EQ(spec->slow_drip, 50 * kMilli);
  // A behaviour knob, not a link impairment: the stream stays transparent.
  EXPECT_FALSE(spec->enabled());
  auto again = parse_fault_spec(spec->to_string());
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_DOUBLE_EQ(again->slow_client, spec->slow_client);
  EXPECT_EQ(again->slow_drip, spec->slow_drip);
}

TEST(FaultSpecT, SlowClientVerdictIsSeedDeterministic) {
  FaultSpec spec;
  spec.seed = 42;
  spec.slow_client = 0.4;
  // Pure function of (seed, connection index): identical across calls, and
  // edge probabilities short-circuit without touching the RNG.
  for (uint64_t i = 0; i < 32; ++i)
    EXPECT_EQ(spec.is_slow_client(i), spec.is_slow_client(i));
  // Committed regression for seed 42: the slow set among the first 16.
  std::vector<uint64_t> slow;
  for (uint64_t i = 0; i < 16; ++i)
    if (spec.is_slow_client(i)) slow.push_back(i);
  EXPECT_EQ(slow, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 13, 14}));

  spec.slow_client = 0;
  EXPECT_FALSE(spec.is_slow_client(3));
  spec.slow_client = 1;
  EXPECT_TRUE(spec.is_slow_client(3));
}

TEST(FaultSpecT, RejectsBadInput) {
  EXPECT_FALSE(parse_fault_spec("bogus:1").ok());
  EXPECT_FALSE(parse_fault_spec("loss").ok());          // no value
  EXPECT_FALSE(parse_fault_spec("loss:1.5").ok());      // probability > 1
  EXPECT_FALSE(parse_fault_spec("loss:-0.1").ok());     // negative
  EXPECT_FALSE(parse_fault_spec("loss:abc").ok());
  EXPECT_FALSE(parse_fault_spec("delay:5parsecs").ok());
  EXPECT_FALSE(parse_fault_spec("blackhole:3s").ok());  // no range
  EXPECT_FALSE(parse_fault_spec("blackhole:3s-2s").ok());  // empty window
  EXPECT_FALSE(parse_fault_spec("flap:100ms").ok());    // no down
  EXPECT_FALSE(parse_fault_spec("flap:100ms/100ms").ok());  // down == period
  EXPECT_FALSE(parse_fault_spec("flap:100ms/200ms").ok());  // down > period
  EXPECT_FALSE(parse_fault_spec("seed:notanumber").ok());
  EXPECT_FALSE(parse_fault_spec("slow_client:1.5").ok());  // probability > 1
  EXPECT_FALSE(parse_fault_spec("drip:0ms").ok());         // must be positive
}

// --- stream seeding ---------------------------------------------------------

TEST(StreamSeedT, StableAndNameSensitive) {
  EXPECT_EQ(stream_seed(42, "udp:10.0.0.1"), stream_seed(42, "udp:10.0.0.1"));
  EXPECT_NE(stream_seed(42, "udp:10.0.0.1"), stream_seed(42, "udp:10.0.0.2"));
  EXPECT_NE(stream_seed(42, "udp:10.0.0.1"), stream_seed(43, "udp:10.0.0.1"));
  EXPECT_NE(stream_seed(42, "udp:10.0.0.1"), stream_seed(42, "tcp:10.0.0.1"));
}

// --- verdict determinism ----------------------------------------------------

FaultSpec lossy_spec() {
  FaultSpec spec;
  spec.drop = 0.3;
  spec.dup = 0.1;
  spec.corrupt = 0.1;
  spec.seed = 42;
  return spec;
}

TEST(FaultStreamT, SameNameSameSeedSameVerdicts) {
  FaultStream a(lossy_spec(), "udp:10.0.0.1");
  FaultStream b(lossy_spec(), "udp:10.0.0.1");
  for (int i = 0; i < 1000; ++i) {
    Verdict va = a.next(i * kMilli);
    Verdict vb = b.next(i * kMilli);
    EXPECT_EQ(va.action, vb.action);
    EXPECT_EQ(va.reason, vb.reason);
    EXPECT_EQ(va.extra_delay, vb.extra_delay);
  }
  EXPECT_EQ(a.counters(), b.counters());
  EXPECT_EQ(a.counters().processed, 1000u);
  EXPECT_GT(a.counters().dropped, 0u);  // p=0.3 over 1000 draws
}

TEST(FaultStreamT, DifferentNamesDrawDifferentSequences) {
  FaultStream a(lossy_spec(), "udp:10.0.0.1");
  FaultStream b(lossy_spec(), "udp:10.0.0.2");
  int divergences = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next(i * kMilli).action != b.next(i * kMilli).action) ++divergences;
  }
  EXPECT_GT(divergences, 0);
}

// The determinism contract itself: interleaving corrupt() calls (variable
// draws) between verdicts must not change the decision sequence, because
// corruption uses its own engine.
TEST(FaultStreamT, CorruptionDrawsDoNotPerturbDecisions) {
  FaultStream plain(lossy_spec(), "udp:10.0.0.1");
  FaultStream noisy(lossy_spec(), "udp:10.0.0.1");
  std::vector<uint8_t> payload(64, 0xab);
  for (int i = 0; i < 500; ++i) {
    Verdict vp = plain.next(i * kMilli);
    Verdict vn = noisy.next(i * kMilli);
    EXPECT_EQ(vp.action, vn.action);
    noisy.corrupt(payload);  // extra draws on the corruption engine only
  }
}

// A packet's decision depends only on its index in the stream, not on which
// impairments are configured around it: turning corruption off must not
// move the drop pattern.
TEST(FaultStreamT, FixedDrawScheduleAcrossSpecVariants) {
  FaultSpec with_corrupt = lossy_spec();
  FaultSpec without_corrupt = lossy_spec();
  without_corrupt.corrupt = 0;
  FaultStream a(with_corrupt, "udp:10.0.0.1");
  FaultStream b(without_corrupt, "udp:10.0.0.1");
  for (int i = 0; i < 1000; ++i) {
    bool drop_a = a.next(i * kMilli).is_drop();
    bool drop_b = b.next(i * kMilli).is_drop();
    EXPECT_EQ(drop_a, drop_b) << "drop pattern moved at packet " << i;
  }
  EXPECT_EQ(a.counters().dropped, b.counters().dropped);
}

// --- window impairments -----------------------------------------------------

TEST(FaultStreamT, BlackholeWindowIsHalfOpen) {
  FaultSpec spec;
  spec.blackhole_start = 100 * kMilli;
  spec.blackhole_end = 200 * kMilli;
  spec.seed = 1;
  FaultStream s(spec, "w");
  // First packet latches the origin at t=1s; offsets are relative to it.
  const TimeNs t0 = kSecond;
  struct Case {
    TimeNs offset;
    bool inside;
  };
  const Case cases[] = {{0, false},           {99 * kMilli, false},
                        {100 * kMilli, true}, {150 * kMilli, true},
                        {199 * kMilli, true}, {200 * kMilli, false},
                        {kSecond, false}};
  for (const auto& c : cases) {
    Verdict v = s.next(t0 + c.offset);
    EXPECT_EQ(v.is_drop(), c.inside) << "offset " << c.offset;
    if (c.inside) {
      EXPECT_EQ(v.reason, DropReason::Blackhole);
    }
  }
  EXPECT_EQ(s.counters().blackholed, 3u);
  EXPECT_EQ(s.counters().processed, 7u);
}

TEST(FaultStreamT, FlapDropsTheFirstPartOfEveryPeriod) {
  FaultSpec spec;
  spec.flap_period = 100 * kMilli;
  spec.flap_down = 30 * kMilli;
  spec.seed = 1;
  FaultStream s(spec, "w");
  struct Case {
    TimeNs offset;
    bool down;
  };
  const Case cases[] = {{0, true},            {29 * kMilli, true},
                        {30 * kMilli, false}, {99 * kMilli, false},
                        {100 * kMilli, true}, {129 * kMilli, true},
                        {130 * kMilli, false}};
  for (const auto& c : cases) {
    Verdict v = s.next(c.offset);
    EXPECT_EQ(v.is_drop(), c.down) << "offset " << c.offset;
    if (c.down) {
      EXPECT_EQ(v.reason, DropReason::Flap);
    }
  }
  EXPECT_EQ(s.counters().flap_dropped, 4u);
}

TEST(FaultStreamT, DelayAndJitterAddExtraLatency) {
  FaultSpec spec;
  spec.delay = 5 * kMilli;
  spec.jitter = 2 * kMilli;
  spec.seed = 9;
  FaultStream s(spec, "d");
  for (int i = 0; i < 100; ++i) {
    Verdict v = s.next(i);
    EXPECT_EQ(v.action, Action::Deliver);
    EXPECT_GE(v.extra_delay, 5 * kMilli);
    EXPECT_LT(v.extra_delay, 7 * kMilli);
  }
  EXPECT_EQ(s.counters().delayed, 100u);
}

TEST(FaultStreamT, ReorderAddsTheGap) {
  FaultSpec spec;
  spec.reorder = 1.0;  // every packet held back
  spec.reorder_gap = 20 * kMilli;
  spec.seed = 2;
  FaultStream s(spec, "r");
  Verdict v = s.next(0);
  EXPECT_EQ(v.action, Action::Deliver);
  EXPECT_EQ(v.extra_delay, 20 * kMilli);
  EXPECT_EQ(s.counters().reordered, 1u);
}

// --- payload corruption -----------------------------------------------------

TEST(FaultStreamT, CorruptAlwaysChangesThePayloadDeterministically) {
  FaultSpec spec;
  spec.corrupt = 1.0;
  spec.seed = 5;
  FaultStream a(spec, "c");
  FaultStream b(spec, "c");
  const std::vector<uint8_t> original(32, 0x55);
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> pa = original;
    std::vector<uint8_t> pb = original;
    a.corrupt(pa);
    b.corrupt(pb);
    EXPECT_NE(pa, original);  // XOR with non-zero always changes bytes
    EXPECT_EQ(pa, pb);        // and deterministically so
    EXPECT_EQ(pa.size(), original.size());
  }
  std::vector<uint8_t> empty;
  a.corrupt(empty);  // no-op, no crash
  EXPECT_TRUE(empty.empty());
}

// --- counters ---------------------------------------------------------------

TEST(ImpairmentCountersT, MergeAndEquality) {
  ImpairmentCounters a;
  a.processed = 10;
  a.dropped = 2;
  a.blackholed = 1;
  a.flap_dropped = 1;
  a.duplicated = 3;
  ImpairmentCounters b;
  b.processed = 5;
  b.dropped = 1;
  b.corrupted = 2;
  b.reordered = 1;
  b.delayed = 4;
  ImpairmentCounters sum = a;
  sum.merge(b);
  EXPECT_EQ(sum.processed, 15u);
  EXPECT_EQ(sum.dropped, 3u);
  EXPECT_EQ(sum.blackholed, 1u);
  EXPECT_EQ(sum.flap_dropped, 1u);
  EXPECT_EQ(sum.duplicated, 3u);
  EXPECT_EQ(sum.corrupted, 2u);
  EXPECT_EQ(sum.reordered, 1u);
  EXPECT_EQ(sum.delayed, 4u);
  EXPECT_EQ(sum.lost(), 5u);
  EXPECT_FALSE(sum == a);
  ImpairmentCounters sum2 = a;
  sum2.merge(b);
  EXPECT_TRUE(sum == sum2);
  EXPECT_FALSE(sum.summary().empty());
}

// --- strict parser error paths ----------------------------------------------

// A typo'd knob must fail loudly, not replay with a half-parsed value.
TEST(FaultSpecT, RejectsTrailingGarbageAndMalformedNumbers) {
  EXPECT_FALSE(parse_fault_spec("loss:0.5x").ok());     // trailing garbage
  EXPECT_FALSE(parse_fault_spec("loss:1.2.3").ok());    // second dot
  EXPECT_FALSE(parse_fault_spec("loss:+0.5").ok());     // explicit sign
  EXPECT_FALSE(parse_fault_spec("loss:.5").ok());       // no leading digit
  EXPECT_FALSE(parse_fault_spec("loss:0.5e1").ok());    // would be > 1 anyway
  EXPECT_FALSE(parse_fault_spec("dup:2").ok());         // probability > 1
  EXPECT_FALSE(parse_fault_spec("corrupt:nan").ok());
  EXPECT_FALSE(parse_fault_spec("delay:ms").ok());      // unit, no number
  EXPECT_FALSE(parse_fault_spec("seed:12abc").ok());
  EXPECT_FALSE(parse_fault_spec("loss:0.1,bogus:1").ok());  // later bad key
}

TEST(FaultSpecT, ErrorsNameTheOffendingInput) {
  auto unknown = parse_fault_spec("losss:0.1");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().message.find("losss"), std::string::npos);
  auto range = parse_fault_spec("reorder:1.5");
  ASSERT_FALSE(range.ok());
  EXPECT_NE(range.error().message.find("[0,1]"), std::string::npos);
  auto garbage = parse_fault_spec("loss:0.5x");
  ASSERT_FALSE(garbage.ok());
  EXPECT_NE(garbage.error().message.find("0.5x"), std::string::npos);
}

// --- removed keys -----------------------------------------------------------

// querier_stall injected in-process querier stalls for a thread-level
// supervisor that no longer exists (the worker process is the failure
// domain). The key must fail loudly, not parse into a no-op.
TEST(FaultSpecT, RejectsRemovedQuerierStallKey) {
  for (const char* text : {"querier_stall:0", "querier_stall:3@250ms",
                           "loss:0.1,querier_stall:2@1s,seed:7"}) {
    auto spec = parse_fault_spec(text);
    ASSERT_FALSE(spec.ok()) << text;
    EXPECT_NE(spec.error().message.find("unknown fault spec key 'querier_stall'"),
              std::string::npos)
        << spec.error().message;
  }
}

// --- checkpoint/resume draw positions ---------------------------------------

// The resume contract: a fresh stream restored to a checkpointed position
// must produce the same verdicts (and corruption bytes) the original stream
// would have produced had it never stopped.
TEST(FaultStreamT, RestoreContinuesTheDrawSequence) {
  FaultSpec spec = lossy_spec();
  constexpr TimeNs kOrigin = 1000 * kSecond;

  FaultStream uninterrupted(lossy_spec(), "udp:10.0.0.1");
  std::vector<Verdict> expect;
  std::vector<uint8_t> pay_a(32, 0x5a);
  for (int i = 0; i < 400; ++i) {
    Verdict v = uninterrupted.next(kOrigin + i * kMilli);
    if (v.action == Action::Corrupt) uninterrupted.corrupt(pay_a);
    expect.push_back(v);
  }

  // Same run, split at packet 150 through a position snapshot.
  FaultStream first(spec, "udp:10.0.0.1");
  std::vector<uint8_t> pay_b(32, 0x5a);
  for (int i = 0; i < 150; ++i) {
    Verdict v = first.next(kOrigin + i * kMilli);
    EXPECT_EQ(v.action, expect[i].action);
    if (v.action == Action::Corrupt) first.corrupt(pay_b);
  }
  FaultStream::Position pos = first.position(kOrigin);
  EXPECT_EQ(pos.packets, 150u);

  FaultStream second(spec, "udp:10.0.0.1");
  second.restore(pos, kOrigin);
  for (int i = 150; i < 400; ++i) {
    Verdict v = second.next(kOrigin + i * kMilli);
    EXPECT_EQ(v.action, expect[i].action) << "diverged at packet " << i;
    EXPECT_EQ(v.extra_delay, expect[i].extra_delay);
    if (v.action == Action::Corrupt) second.corrupt(pay_b);
  }
  EXPECT_EQ(pay_a, pay_b);  // corruption engine resumed in lock-step too
  // Positions are cumulative across the restore.
  EXPECT_EQ(second.position(kOrigin).packets, 400u);
  EXPECT_EQ(second.position(kOrigin), uninterrupted.position(kOrigin));
}

// Window faults (blackhole/flap) must re-anchor on a fresh monotonic
// timeline: the restored stream sees the same trace-relative windows even
// though its process booted at a different absolute time.
TEST(FaultStreamT, RestoreReanchorsWindowsOnANewTimeline) {
  FaultSpec spec;
  spec.blackhole_start = 100 * kMilli;
  spec.blackhole_end = 200 * kMilli;
  spec.seed = 9;

  FaultStream original(spec, "udp:10.0.0.9");
  constexpr TimeNs kOrigin1 = 50 * kSecond;
  // Latch the window origin, stay before the blackhole.
  EXPECT_EQ(original.next(kOrigin1 + 10 * kMilli).action, Action::Deliver);
  FaultStream::Position pos = original.position(kOrigin1);
  EXPECT_NE(pos.origin_offset, FaultStream::kNoOrigin);

  // "New process": different origin, same trace-relative schedule.
  constexpr TimeNs kOrigin2 = 9000 * kSecond;
  FaultStream resumed(spec, "udp:10.0.0.9");
  resumed.restore(pos, kOrigin2);
  EXPECT_EQ(resumed.next(kOrigin2 + 150 * kMilli).action, Action::Drop);
  EXPECT_EQ(resumed.counters().blackholed, 1u);
  EXPECT_EQ(resumed.next(kOrigin2 + 250 * kMilli).action, Action::Deliver);
}

TEST(FaultStreamT, UnlatchedPositionRestoresAsUnlatched) {
  FaultSpec spec = lossy_spec();
  FaultStream never_ran(spec, "udp:10.0.0.3");
  FaultStream::Position pos = never_ran.position(123 * kSecond);
  EXPECT_EQ(pos.packets, 0u);
  EXPECT_EQ(pos.origin_offset, FaultStream::kNoOrigin);

  FaultStream fresh(spec, "udp:10.0.0.3");
  fresh.restore(pos, 456 * kSecond);
  FaultStream plain(spec, "udp:10.0.0.3");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fresh.next(i * kMilli).action, plain.next(i * kMilli).action);
  }
}

}  // namespace
}  // namespace ldp::fault

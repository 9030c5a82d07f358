// Self-healing replay pipeline tests: overload shedding (a saturated queue
// sheds with accounting instead of stalling), the checkpoint ticker, and
// deterministic checkpoint/resume (a replay cut in two produces the same
// books as one that never stopped). Plus unit coverage for
// EngineReport::merge_from, the checkpoint file format, and the counter
// table that drives merge, checkpoint and REPORT serialization.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "expect_counters.hpp"
#include "replay/checkpoint.hpp"
#include "replay/dist/controller.hpp"
#include "replay/dist/protocol.hpp"
#include "replay/engine.hpp"
#include "replay/supervisor.hpp"
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

std::string temp_path(const char* stem) {
  return testing::TempDir() + stem + std::to_string(::getpid());
}

// --- EngineReport::merge_from -----------------------------------------------

TEST(EngineReportT, MergeSumsCountersAndWidensTimeline) {
  // Counter merge rules are covered field by field in CounterTable below.
  EngineReport a;
  a.latency_hist.add(kMilli);
  a.latency_hist.add(2 * kMilli);
  a.replay_start = 1000;
  a.replay_end = 5000;
  a.sends.push_back(SendRecord{.trace_time = 0, .send_time = 1200});

  EngineReport b;
  b.latency_hist.add(4 * kMilli);
  b.replay_start = 800;  // earlier start must win
  b.replay_end = 9000;
  b.sends.push_back(SendRecord{.trace_time = 0, .send_time = 900});

  a.merge_from(std::move(b));
  EXPECT_EQ(a.latency_hist.count(), 3u);  // histograms merge
  EXPECT_EQ(a.latency_hist.min(), kMilli);
  EXPECT_EQ(a.latency_hist.max(), 4 * kMilli);
  EXPECT_EQ(a.replay_start, 800);
  EXPECT_EQ(a.replay_end, 9000);
  EXPECT_EQ(a.sends.size(), 2u);
}

TEST(EngineReportT, MergeIgnoresZeroStartAndSentinelSendTimes) {
  EngineReport a;
  a.replay_start = 2000;
  a.replay_end = 3000;

  // A checkpoint's partial report has no timing; its zero replay_start must
  // not clobber a real one, and send_time == 0 sentinels (restored records
  // never re-sent) must not drag replay_start to zero.
  EngineReport partial;
  partial.queries_sent = 4;
  partial.replay_start = 0;
  partial.sends.push_back(SendRecord{.trace_time = 7, .send_time = 0});
  a.merge_from(std::move(partial));
  EXPECT_EQ(a.replay_start, 2000);
  EXPECT_EQ(a.replay_end, 3000);

  // But a real earlier send still lowers it (fast-mode widening).
  EngineReport early;
  early.sends.push_back(SendRecord{.trace_time = 7, .send_time = 1500});
  a.merge_from(std::move(early));
  EXPECT_EQ(a.replay_start, 1500);

  // And a merged-into-empty report adopts the other's start wholesale.
  EngineReport fresh;
  EngineReport timed;
  timed.replay_start = 4000;
  fresh.merge_from(std::move(timed));
  EXPECT_EQ(fresh.replay_start, 4000);
}

// --- checkpoint ticker ------------------------------------------------------

TEST(SupervisorT, CheckpointTickerRunsPeriodically) {
  std::atomic<int> ticks{0};
  Supervisor sup(10 * kMilli, [&] { ticks.fetch_add(1); });
  sup.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  sup.stop();
  EXPECT_GE(ticks.load(), 3);
}

// --- checkpoint file format -------------------------------------------------

CheckpointState sample_state() {
  CheckpointState st;
  st.trace_hash = 0xdeadbeefcafef00dULL;
  st.trace_queries = 400;
  st.partial.latency_hist.add(kMilli);
  st.partial.latency_hist.add(3 * kMilli);
  st.partial.latency_hist.add(700 * kMicro);
  st.sent["10.1.0.1"] = 40;
  st.sent["10.1.0.2"] = 41;
  fault::FaultStream::Position pos;
  pos.packets = 55;
  pos.corrupt_words = 9;
  pos.origin_offset = -123456;  // fast mode offsets go negative
  st.streams["udp:10.1.0.1"] = pos;
  st.streams["tcp:10.1.0.2"] = fault::FaultStream::Position{};  // unlatched
  CheckpointPending pq;
  pq.record.trace_time = 77 * kSecond;
  pq.record.querier = 3;
  pq.record.retries = 1;
  pq.record.source = *IpAddr::parse("10.1.0.2");
  pq.transport = Transport::Tcp;
  pq.retries_used = 1;
  pq.payload = {0xab, 0xcd, 0x01, 0x02, 0x03};
  st.pending.push_back(pq);
  return st;
}

TEST(CheckpointT, SaveLoadRoundTrips) {
  std::string path = temp_path("ldp_ckpt_roundtrip_");
  CheckpointState st = sample_state();
  auto saved = save_checkpoint(path, st);
  ASSERT_TRUE(saved.ok()) << saved.error().message;

  auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded->trace_hash, st.trace_hash);
  EXPECT_EQ(loaded->trace_queries, st.trace_queries);
  // Counters are covered field by field in CounterTable below. Histogram
  // round-trips losslessly: buckets, extremes, and exact sum.
  EXPECT_EQ(loaded->partial.latency_hist.count(),
            st.partial.latency_hist.count());
  EXPECT_EQ(loaded->partial.latency_hist.min(), st.partial.latency_hist.min());
  EXPECT_EQ(loaded->partial.latency_hist.max(), st.partial.latency_hist.max());
  EXPECT_EQ(loaded->partial.latency_hist.sum(), st.partial.latency_hist.sum());
  EXPECT_EQ(loaded->sent, st.sent);
  ASSERT_EQ(loaded->streams.size(), 2u);
  EXPECT_EQ(loaded->streams["udp:10.1.0.1"], st.streams["udp:10.1.0.1"]);
  EXPECT_EQ(loaded->streams["tcp:10.1.0.2"].origin_offset,
            fault::FaultStream::kNoOrigin);
  ASSERT_EQ(loaded->pending.size(), 1u);
  EXPECT_EQ(loaded->pending[0].record.trace_time, 77 * kSecond);
  EXPECT_EQ(loaded->pending[0].record.querier, 3u);
  EXPECT_EQ(loaded->pending[0].record.retries, 1u);
  EXPECT_EQ(loaded->pending[0].record.source.to_string(), "10.1.0.2");
  EXPECT_EQ(loaded->pending[0].transport, Transport::Tcp);
  EXPECT_EQ(loaded->pending[0].retries_used, 1u);
  EXPECT_EQ(loaded->pending[0].payload, st.pending[0].payload);
  std::remove(path.c_str());
}

TEST(CheckpointT, LoaderRejectsDamagedFiles) {
  EXPECT_FALSE(load_checkpoint("/nonexistent/ldp.ckpt").ok());

  std::string path = temp_path("ldp_ckpt_damaged_");
  {
    std::ofstream os(path);
    os << "not a checkpoint\n";
  }
  auto bad_magic = load_checkpoint(path);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_NE(bad_magic.error().message.find("magic"), std::string::npos);

  {
    std::ofstream os(path);
    os << "ldp-checkpoint v3\ntrace 1 2\n";  // killed mid-write: no end marker
  }
  auto truncated = load_checkpoint(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.error().message.find("truncated"), std::string::npos);

  {
    std::ofstream os(path);
    os << "ldp-checkpoint v3\nfrobnicate 1\nend\n";
  }
  auto unknown = load_checkpoint(path);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().message.find("frobnicate"), std::string::npos);

  {
    std::ofstream os(path);
    os << "ldp-checkpoint v3\npending notanip udp 0 0 0 0 -\nend\n";
  }
  EXPECT_FALSE(load_checkpoint(path).ok());
  std::remove(path.c_str());
}

// --- the counter table ------------------------------------------------------

/// A report whose every counter holds a distinct nonzero value, assigned
/// by walking the table itself (so a new counter is covered automatically).
EngineReport numbered_report(int64_t first) {
  EngineReport r;
  int64_t next = first;
  metrics::for_each_counter(
      [&](metrics::CounterName, metrics::MergeRule, auto& v) {
        v = static_cast<std::remove_reference_t<decltype(v)>>(next++);
      },
      r);
  return r;
}

void expect_every_counter_equal(const EngineReport& got,
                                const EngineReport& want) {
  metrics::for_each_counter(
      [](metrics::CounterName name, metrics::MergeRule, const auto& g,
         const auto& w) { EXPECT_EQ(g, w) << "counter " << name.str(); },
      got, want);
}

TEST(CounterTable, NamesAreUniqueAndOnlyHighWaterMarksMergeByMax) {
  std::set<std::string> names, max_rule;
  size_t entries = 0;
  const EngineReport r;
  metrics::for_each_counter(
      [&](metrics::CounterName name, metrics::MergeRule rule, const auto&) {
        ++entries;
        names.insert(name.str());
        if (rule == metrics::MergeRule::Max) max_rule.insert(name.str());
      },
      r);
  EXPECT_EQ(names.size(), entries);
  EXPECT_TRUE(names.count("lifecycle.timeouts"));
  EXPECT_TRUE(names.count("impairments.dropped"));
  EXPECT_EQ(max_rule,
            (std::set<std::string>{"max_in_flight", "queue_hwm", "max_drift_ns"}));
}

TEST(CounterTable, EveryCounterSurvivesCheckpointReportAndMerge) {
  const EngineReport a = numbered_report(1);
  const EngineReport b = numbered_report(1000);

  CheckpointState st;
  st.trace_hash = 7;
  st.partial = a;
  auto loaded = parse_checkpoint(serialize_checkpoint(st));
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  expect_every_counter_equal(loaded->partial, a);

  auto report = dist::parse_report(dist::encode_report(a));
  ASSERT_TRUE(report.ok()) << report.error().message;
  expect_every_counter_equal(*report, a);

  EngineReport merged = a;
  EngineReport other = b;
  merged.merge_from(std::move(other));
  metrics::for_each_counter(
      [](metrics::CounterName name, metrics::MergeRule rule, const auto& m,
         const auto& x, const auto& y) {
        EXPECT_EQ(m, rule == metrics::MergeRule::Max ? std::max(x, y) : x + y)
            << "counter " << name.str();
      },
      merged, a, b);
}

TEST(CounterTable, ReadersRejectOldMagicAndUnknownCountersAndZeroMissingOnes) {
  for (const char* old : {"ldp-checkpoint v1", "ldp-checkpoint v2"}) {
    auto st = parse_checkpoint(std::string(old) + "\ntrace 1 2\nend\n");
    ASSERT_FALSE(st.ok()) << old;
    EXPECT_NE(st.error().message.find("magic"), std::string::npos) << old;
  }
  // v2 files and frames still list querier_failures / sources_reassigned.
  EXPECT_FALSE(dist::parse_report("ldp-report v1\nend\n").ok());
  EXPECT_FALSE(dist::parse_report("ldp-report v2\nend\n").ok());

  auto unknown = parse_checkpoint("ldp-checkpoint v3\ncounter frobs 3\nend\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().message.find("frobs"), std::string::npos);
  auto unknown_report = dist::parse_report("ldp-report v3\ncounter frobs 3\nend\n");
  ASSERT_FALSE(unknown_report.ok());
  EXPECT_NE(unknown_report.error().message.find("frobs"), std::string::npos);
  EXPECT_FALSE(
      parse_checkpoint("ldp-checkpoint v3\ncounter queries_sent x\nend\n").ok());

  // A counter the writer did not list reads as zero.
  auto sparse = parse_checkpoint(
      "ldp-checkpoint v3\ntrace 1 2\ncounter lifecycle.retries 5\nend\n");
  ASSERT_TRUE(sparse.ok()) << sparse.error().message;
  EngineReport want;
  want.lifecycle.retries = 5;
  expect_every_counter_equal(sparse->partial, want);
}

TEST(CheckpointT, TraceFingerprintSeparatesTraces) {
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 10 * kMilli;
  spec.duration_ns = 200 * kMilli;
  spec.client_count = 4;
  auto a = synth::make_fixed_trace(spec);
  EXPECT_EQ(trace_fingerprint(a), trace_fingerprint(a));
  spec.client_count = 5;
  auto b = synth::make_fixed_trace(spec);
  EXPECT_NE(trace_fingerprint(a), trace_fingerprint(b));
}

// --- overload shedding ------------------------------------------------------

// A queue nobody pops is a saturated consumer. DropOldest must keep the
// producer moving, keep the newest records, and account every record it
// sheds.
TEST(SelfHealingT, DropOldestShedsInsteadOfStalling) {
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = kMilli;
  spec.duration_ns = 400 * kMilli;  // 400 queries
  spec.client_count = 1;
  auto trace = synth::make_fixed_trace(spec);

  constexpr size_t kCapacity = 8;
  BoundedQueue<TraceRecord> queue(kCapacity);
  OverloadLedger ledger;
  for (const auto& rec : trace) {
    TraceRecord copy = rec;
    ASSERT_EQ(push_with_policy(queue, copy, OverloadPolicy::DropOldest, kMilli,
                               ledger),
              PushResult::Ok);
  }

  const uint64_t shed = ledger.shed.load();
  const uint64_t sent = queue.size();
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(sent + shed, trace.size());
  // The tiny queue really did hit its ceiling.
  EXPECT_EQ(queue.high_water(), kCapacity);
  // The oldest went first: what is left is the tail of the trace, in order.
  queue.close();
  for (size_t i = trace.size() - sent; i < trace.size(); ++i) {
    auto rec = queue.pop();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->timestamp, trace[i].timestamp);
  }
}

// ClampRate books the time it spends blocked; Block just waits. Both are
// lossless: a consumer that frees a slot lets the push through.
TEST(SelfHealingT, BlockingPoliciesWaitForRoomWithoutShedding) {
  for (OverloadPolicy policy : {OverloadPolicy::Block, OverloadPolicy::ClampRate}) {
    BoundedQueue<TraceRecord> queue(1);
    OverloadLedger ledger;
    TraceRecord first, second;
    ASSERT_EQ(push_with_policy(queue, first, policy, kMilli, ledger),
              PushResult::Ok);
    std::thread consumer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      (void)queue.pop();
    });
    EXPECT_EQ(push_with_policy(queue, second, policy, kMilli, ledger),
              PushResult::Ok);
    consumer.join();
    EXPECT_EQ(ledger.shed.load(), 0u);
    if (policy == OverloadPolicy::ClampRate) {
      EXPECT_GT(ledger.clamp_stall_ns.load(), 0u);
    } else {
      EXPECT_EQ(ledger.clamp_stall_ns.load(), 0u);
    }
    EXPECT_EQ(queue.size(), 1u);
  }
}

// --- deterministic checkpoint/resume ----------------------------------------

// The acceptance experiment, in-process: replay a trace with impairments
// end-to-end (run A); then replay only its first half with a checkpoint
// file, and resume the full trace from that checkpoint (run B1 + B2). The
// resumed books must equal the uninterrupted ones exactly: queries sent,
// impairment counters, lifecycle counters.
//
// Timing is serialized per source (each query resolves — answered, or
// dropped+retried+expired — before the next one is due), so the per-source
// fault-stream draw order is identical in every run.
TEST(SelfHealingT, ResumedReplayMatchesUninterruptedRun) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok()) << bg.error().message;

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 120 * kMilli;
  spec.duration_ns = 2400 * kMilli;  // 20 queries
  spec.client_count = 1;
  auto full = synth::make_fixed_trace(spec);
  ASSERT_EQ(full.size(), 20u);
  std::vector<TraceRecord> prefix(full.begin(), full.begin() + 10);

  EngineConfig base;
  base.server = (*bg)->endpoint();
  base.queriers_per_distributor = 2;
  base.timed = true;
  base.query_timeout = 50 * kMilli;   // resolve well inside the 120ms gap
  base.max_retries = 1;
  base.retry_backoff_cap = 50 * kMilli;
  base.drain_grace = 300 * kMilli;
  fault::FaultSpec fs;
  fs.drop = 0.3;
  fs.seed = 42;
  base.fault = fs;

  // Run A: never interrupted.
  EngineReport uninterrupted;
  {
    QueryEngine engine(base);
    auto r = engine.replay(full);
    ASSERT_TRUE(r.ok()) << r.error().message;
    uninterrupted = std::move(*r);
  }
  ASSERT_EQ(uninterrupted.queries_sent, full.size());
  ASSERT_GT(uninterrupted.impairments.dropped, 0u);  // the fault really bites

  // Run B1: first half only, checkpointing; the final quiescent snapshot
  // is what resume continues from (cut exactly at the inter-burst gap).
  std::string ckpt = temp_path("ldp_ckpt_resume_");
  {
    EngineConfig cfg = base;
    cfg.checkpoint_path = ckpt;
    cfg.checkpoint_interval = 100 * kMilli;
    QueryEngine engine(cfg);
    auto r = engine.replay(prefix);
    ASSERT_TRUE(r.ok()) << r.error().message;
  }
  // Resume validates the trace identity: the checkpoint was cut against
  // the prefix, so resuming the full trace needs the prefix's fingerprint
  // rewritten — which is exactly what a kill mid-way through `full` would
  // have produced. Patch the hash the way the real flow (same trace file
  // on both runs) gets it for free.
  auto cut = load_checkpoint(ckpt);
  ASSERT_TRUE(cut.ok()) << cut.error().message;
  ASSERT_EQ(cut->partial.queries_sent, prefix.size());
  cut->trace_hash = trace_fingerprint(full);

  // Run B2: resume the full trace from the cut.
  EngineReport resumed;
  {
    EngineConfig cfg = base;
    cfg.resume = &*cut;
    QueryEngine engine(cfg);
    auto r = engine.replay(full);
    ASSERT_TRUE(r.ok()) << r.error().message;
    resumed = std::move(*r);
  }

  // Exact equality of the books: the whole counter table.
  expect_same_counters(
      resumed, uninterrupted,
      {{"queue_hwm", "a resumed run queues only what the checkpoint has not sent"}});
  EXPECT_EQ(resumed.latency_hist.count(), uninterrupted.latency_hist.count());
  std::remove(ckpt.c_str());
}

// Resume against the wrong trace must refuse, not silently replay garbage.
TEST(SelfHealingT, ResumeRejectsAForeignTrace) {
  auto bg = server::BackgroundServer::start(wildcard_server());
  ASSERT_TRUE(bg.ok()) << bg.error().message;

  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 10 * kMilli;
  spec.duration_ns = 100 * kMilli;
  spec.client_count = 2;
  auto trace = synth::make_fixed_trace(spec);

  CheckpointState cut;
  cut.trace_hash = 0x1234;  // not this trace
  EngineConfig cfg;
  cfg.server = (*bg)->endpoint();
  cfg.resume = &cut;
  QueryEngine engine(cfg);
  auto r = engine.replay(trace);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("different trace"), std::string::npos);
}

// A zero checkpoint interval (what `--checkpoint-interval 0` or `x` used to
// become) re-armed every querier's snapshot timer at `now` forever: the
// replay spun at full CPU and never finished. Every checkpointing path
// refuses it up front instead.
TEST(CheckpointT, NonPositiveIntervalIsRefusedNotSpun) {
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = 10 * kMilli;
  spec.duration_ns = 100 * kMilli;
  spec.client_count = 2;
  auto trace = synth::make_fixed_trace(spec);
  auto expect_refused = [](const auto& result) {
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("checkpoint interval must be positive"),
              std::string::npos)
        << result.error().message;
  };

  for (TimeNs interval : {TimeNs{0}, -kSecond}) {
    EngineConfig sink;  // the distributed worker's in-memory consumer
    sink.server = Endpoint{IpAddr{Ip4{127, 0, 0, 1}}, 9};
    sink.checkpoint_interval = interval;
    sink.checkpoint_sink = [](const CheckpointState&) {};
    expect_refused(QueryEngine(sink).replay(trace));

    EngineConfig file = sink;  // ldp-replay --checkpoint, one and four queriers
    file.checkpoint_sink = nullptr;
    file.checkpoint_path = temp_path("interval_ckpt");
    file.queriers_per_distributor = 1;
    expect_refused(QueryEngine(file).replay(trace));
    file.queriers_per_distributor = 4;
    expect_refused(QueryEngine(file).replay(trace));

    dist::DistConfig fleet;  // ldp-replay --workers: refused before any fork
    fleet.worker_bin = "ldp-worker";
    fleet.checkpoint_interval = interval;
    expect_refused(dist::run_distributed(fleet));
  }
}

}  // namespace
}  // namespace ldp::replay

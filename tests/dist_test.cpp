// Distributed-replay regression suite (`ctest -L dist` / check_dist): the
// control protocol codecs and FrameReader, control-frame round-trip latency
// over loopback TCP, the shared source partition, multi-process replay
// through real forked ldp-worker processes (counters, kill -9 → respawn →
// resume exactness, a SIGSTOP-wedged worker killed on heartbeat staleness
// and respawned just as exactly, respawn-budget exhaustion and the
// in-process fallback, drift correction with a deliberately skewed worker
// clock), and checkpoints of a source-split querier pool (one file at any
// querier count, resume across querier counts, a cut whose every query is
// in flight resumed over UDP and TCP). Also what the tsan-dist preset runs
// under ThreadSanitizer.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "expect_counters.hpp"
#include "replay/checkpoint.hpp"
#include "replay/dist/controller.hpp"
#include "replay/dist/protocol.hpp"
#include "replay/engine.hpp"
#include "server/background.hpp"
#include "synth/generator.hpp"
#include "trace/binary.hpp"
#include "zone/parser.hpp"

#ifndef LDP_WORKER_BIN
#error "LDP_WORKER_BIN must point at the built ldp-worker executable"
#endif

namespace ldp {
namespace {

using replay::dist::AssignMsg;
using replay::dist::BarrierMsg;
using replay::dist::Frame;
using replay::dist::FrameReader;
using replay::dist::FrameType;
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

std::vector<TraceRecord> small_trace(TimeNs gap = 5 * kMilli,
                                     TimeNs duration = 2 * kSecond,
                                     size_t clients = 12) {
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = gap;
  spec.duration_ns = duration;
  spec.client_count = clients;
  spec.seed = 7;
  return synth::make_fixed_trace(spec);
}

/// Write `trace` to a unique .ldpb under /tmp and return the path.
std::string write_trace(const std::vector<TraceRecord>& trace,
                        const char* tag) {
  std::string path = "/tmp/ldp_dist_test_" + std::string(tag) + "_" +
                     std::to_string(::getpid()) + ".ldpb";
  trace::BinaryWriter w;
  for (const auto& rec : trace) w.add(rec);
  EXPECT_TRUE(w.save(path).ok());
  return path;
}

replay::dist::DistConfig base_config(const Endpoint& server,
                                     const std::string& trace_path) {
  replay::dist::DistConfig cfg;
  cfg.workers = 2;
  cfg.worker_bin = LDP_WORKER_BIN;
  cfg.trace_path = trace_path;
  cfg.server = server;
  cfg.queriers_per_distributor = 1;
  cfg.heartbeat_interval = 100 * kMilli;
  cfg.checkpoint_interval = 200 * kMilli;
  cfg.start_lead = 400 * kMilli;
  return cfg;
}

// --- protocol codecs -------------------------------------------------------

TEST(DistProtocol, HelloAssignStartRoundTrip) {
  replay::dist::HelloMsg hello;
  hello.worker = 3;
  hello.pid = 4242;
  auto h = replay::dist::parse_hello(replay::dist::encode_hello(hello));
  ASSERT_TRUE(h.ok()) << h.error().message;
  EXPECT_EQ(h->version, replay::dist::kProtocolVersion);
  EXPECT_EQ(h->worker, 3);
  EXPECT_EQ(h->pid, 4242);

  AssignMsg assign;
  assign.index = 2;
  assign.count = 4;
  assign.server = Endpoint{IpAddr{Ip4{127, 0, 0, 1}}, 5353};
  assign.timed = false;
  assign.queriers = 5;
  assign.heartbeat_interval = 123 * kMilli;
  assign.checkpoint_interval = 456 * kMilli;
  assign.fault_spec = "loss:0.05,seed:42";
  assign.resume = "ldp-checkpoint v3\nmulti\nline blob\nend\n";
  auto a = replay::dist::parse_assign(replay::dist::encode_assign(assign));
  ASSERT_TRUE(a.ok()) << a.error().message;
  EXPECT_EQ(a->index, 2u);
  EXPECT_EQ(a->count, 4u);
  EXPECT_EQ(a->server.to_string(), "127.0.0.1:5353");
  EXPECT_FALSE(a->timed);
  EXPECT_EQ(a->queriers, 5u);
  EXPECT_EQ(a->heartbeat_interval, 123 * kMilli);
  EXPECT_EQ(a->checkpoint_interval, 456 * kMilli);
  EXPECT_EQ(a->fault_spec, "loss:0.05,seed:42");
  EXPECT_EQ(a->resume, assign.resume);  // blob survives verbatim

  // A fresh assignment carries no resume blob and no fault spec.
  assign.resume.clear();
  assign.fault_spec.clear();
  auto a2 = replay::dist::parse_assign(replay::dist::encode_assign(assign));
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(a2->resume.empty());
  EXPECT_TRUE(a2->fault_spec.empty());

  // An ASSIGN from a version-1 controller still carries the removed
  // `batched` knob: an unknown field, rejected rather than ignored.
  auto old = replay::dist::parse_assign("index 0\ncount 1\nbatched 1\n");
  ASSERT_FALSE(old.ok());
  EXPECT_NE(old.error().message.find("unknown field 'batched'"), std::string::npos)
      << old.error().message;
  // Nor does version 3 know a version-2 `distributors` line: the worker
  // process is the distributor, and its engine has no such tier.
  EXPECT_EQ(replay::dist::kProtocolVersion, 3u);
  auto v2 = replay::dist::parse_assign("index 0\ncount 1\ndistributors 1\n");
  ASSERT_FALSE(v2.ok());
  EXPECT_NE(v2.error().message.find("unknown field 'distributors'"),
            std::string::npos)
      << v2.error().message;
  // A worker engine needs at least one querier thread.
  EXPECT_FALSE(replay::dist::parse_assign("index 0\ncount 1\nqueriers 0\n").ok());

  // Out-of-range slice indices are a parse error, not a crash later.
  assign.index = 9;
  EXPECT_FALSE(
      replay::dist::parse_assign(replay::dist::encode_assign(assign)).ok());

  replay::dist::StartMsg start;
  start.trace_origin = 123456789;
  start.start_at = 987654321;
  start.offset = -250 * kMilli;
  auto s = replay::dist::parse_start(replay::dist::encode_start(start));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->trace_origin, start.trace_origin);
  EXPECT_EQ(s->start_at, start.start_at);
  EXPECT_EQ(s->offset, start.offset);
}

TEST(DistProtocol, BarrierKindsRoundTrip) {
  for (auto kind : {BarrierMsg::Kind::Ready, BarrierMsg::Kind::Probe,
                    BarrierMsg::Kind::Echo}) {
    BarrierMsg m{kind, 7, 111, kind == BarrierMsg::Kind::Echo ? 222 : 0};
    auto r = replay::dist::parse_barrier(replay::dist::encode_barrier(m));
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(r->kind, kind);
    if (kind != BarrierMsg::Kind::Ready) {
      EXPECT_EQ(r->seq, 7u);
      EXPECT_EQ(r->t_ctrl, 111);
    }
    if (kind == BarrierMsg::Kind::Echo) {
      EXPECT_EQ(r->t_worker, 222);
    }
  }
  EXPECT_FALSE(replay::dist::parse_barrier("frobnicate 1 2").ok());
}

TEST(DistProtocol, ReportRoundTripPreservesCountersAndSends) {
  // Every counter's round trip is covered by CounterTable in
  // robustness_test.cpp; this test covers the REPORT-only records.
  replay::EngineReport r;
  r.replay_start = 1000000;
  r.replay_end = 9000000;
  r.latency_hist.add(2 * kMilli);
  r.latency_hist.add(5 * kMilli);
  replay::SendRecord sr;
  sr.trace_time = 42;
  sr.send_time = 1000042;
  sr.latency = 300000;
  sr.source = IpAddr{Ip4{10, 0, 0, 9}};
  sr.querier = 2;
  sr.retries = 1;
  sr.outcome = replay::QueryOutcome::Answered;
  r.sends.push_back(sr);

  auto back = replay::dist::parse_report(replay::dist::encode_report(r));
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back->replay_start, r.replay_start);
  EXPECT_EQ(back->replay_end, r.replay_end);
  EXPECT_EQ(back->latency_hist.count(), r.latency_hist.count());
  ASSERT_EQ(back->sends.size(), 1u);
  EXPECT_EQ(back->sends[0].trace_time, sr.trace_time);
  EXPECT_EQ(back->sends[0].send_time, sr.send_time);
  EXPECT_EQ(back->sends[0].latency, sr.latency);
  EXPECT_EQ(back->sends[0].source, sr.source);
  EXPECT_EQ(back->sends[0].querier, sr.querier);
  EXPECT_EQ(back->sends[0].retries, sr.retries);
  EXPECT_EQ(back->sends[0].outcome, sr.outcome);

  EXPECT_FALSE(replay::dist::parse_report("not a report").ok());

  // A worker's outcome code outside Pending..Errored is an error, never a
  // cast to an enum value that does not exist.
  for (const char* outcome : {"4", "-1", "255"}) {
    auto bad = replay::dist::parse_report(
        "ldp-report v3\nsend 1 2 3 10.0.0.9 0 0 " + std::string(outcome) +
        "\nend\n");
    ASSERT_FALSE(bad.ok()) << outcome;
    EXPECT_NE(bad.error().message.find("outcome"), std::string::npos);
  }
}

// --- FrameReader -----------------------------------------------------------

TEST(DistProtocol, FrameReaderReassemblesByteByByte) {
  // Build two frames on the wire: len | type | payload.
  auto wire_frame = [](FrameType t, const std::string& payload) {
    std::string out;
    uint32_t len = static_cast<uint32_t>(payload.size()) + 1;
    for (int shift = 24; shift >= 0; shift -= 8)
      out.push_back(static_cast<char>((len >> shift) & 0xff));
    out.push_back(static_cast<char>(t));
    out += payload;
    return out;
  };
  std::string wire = wire_frame(FrameType::Heartbeat, "12345\n") +
                     wire_frame(FrameType::Checkpoint, std::string(7000, 'x'));

  FrameReader reader;
  std::vector<Frame> got;
  for (char c : wire) {
    reader.feed(reinterpret_cast<const uint8_t*>(&c), 1);
    while (true) {
      auto f = reader.next();
      ASSERT_TRUE(f.ok()) << f.error().message;
      if (!f->has_value()) break;
      got.push_back(std::move(**f));
    }
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, FrameType::Heartbeat);
  EXPECT_EQ(got[0].payload, "12345\n");
  EXPECT_EQ(got[1].type, FrameType::Checkpoint);
  EXPECT_EQ(got[1].payload.size(), 7000u);
}

TEST(DistProtocol, FrameReaderRejectsOversizedAndEmptyFrames) {
  // Oversized: length prefix claims more than kMaxFramePayload.
  uint8_t big[5] = {0xff, 0xff, 0xff, 0xff, 1};
  FrameReader reader;
  reader.feed(big, sizeof(big));
  EXPECT_FALSE(reader.next().ok());

  // Zero length can't even hold the type byte.
  uint8_t zero[4] = {0, 0, 0, 0};
  FrameReader reader2;
  reader2.feed(zero, sizeof(zero));
  EXPECT_FALSE(reader2.next().ok());
}

// --- control-frame latency -------------------------------------------------

// Request/reply frame round trips over loopback TCP without TCP_NODELAY,
// the way the controller and its workers run the handshake, the barrier
// probe rounds and every respawn. A frame written in two pieces (header,
// then payload) holds the payload back under Nagle until the peer's delayed
// ACK fires, about 40 ms per frame; one write per frame has nothing to wait
// for.
TEST(DistProtocol, FrameRoundTripsDoNotWaitOnDelayedAcks) {
  int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), addr_len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);
  int client = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(client, 0);
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr), addr_len), 0);
  int peer = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(peer, 0);

  // The peer echoes every frame back until the client closes its side.
  std::thread echo([peer] {
    while (true) {
      auto f = replay::dist::recv_frame(peer);
      if (!f.ok() || !f->has_value()) return;
      if (!replay::dist::send_frame(peer, (*f)->type, (*f)->payload).ok()) return;
    }
  });
  constexpr int kRounds = 40;
  const std::string probe = replay::dist::encode_barrier(
      {BarrierMsg::Kind::Probe, 1, 123456789, 0});
  TimeNs t0 = mono_now_ns();
  for (int i = 0; i < kRounds; ++i) {
    bool sent = replay::dist::send_frame(client, FrameType::Barrier, probe).ok();
    auto reply = replay::dist::recv_frame(client);
    if (!sent || !reply.ok() || !reply->has_value() ||
        (*reply)->payload != probe) {
      ADD_FAILURE() << "round trip " << i << " failed";
      break;
    }
  }
  TimeNs elapsed = mono_now_ns() - t0;
  ::shutdown(client, SHUT_WR);
  echo.join();
  ::close(peer);
  ::close(client);
  ::close(listener);
  // 80 frames at loopback speed take milliseconds; a delayed-ACK stall per
  // frame adds up to seconds.
  EXPECT_LT(elapsed, kSecond) << kRounds << " round trips took "
                              << ns_to_ms(elapsed) << " ms";
}

// --- the shared partition --------------------------------------------------

TEST(DistPartition, StickyDeterministicAndComplete) {
  auto trace = small_trace();
  auto slices = replay::partition_by_source(trace, 3);
  ASSERT_EQ(slices.size(), 3u);

  size_t total = 0;
  std::unordered_map<IpAddr, size_t, IpAddrHash> owner;
  for (size_t i = 0; i < slices.size(); ++i) {
    total += slices[i].size();
    for (const auto& rec : slices[i]) {
      auto [it, fresh] = owner.emplace(rec.src.addr, i);
      EXPECT_EQ(it->second, i) << "source split across slices";
      (void)fresh;
    }
  }
  EXPECT_EQ(total, trace.size());  // every query record lands exactly once

  // Deterministic: worker and controller compute the same partition
  // independently, so a second call must agree slice by slice.
  auto again = replay::partition_by_source(trace, 3);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(again[i].size(), slices[i].size());
    for (size_t j = 0; j < slices[i].size(); ++j)
      EXPECT_EQ(again[i][j].timestamp, slices[i][j].timestamp);
  }

  // More workers than sources: the tail slices are empty, nothing is lost.
  auto wide = replay::partition_by_source(trace, 40);
  size_t wide_total = 0;
  for (const auto& s : wide) wide_total += s.size();
  EXPECT_EQ(wide_total, trace.size());
}

// --- multi-process replay --------------------------------------------------

class DistReplay : public ::testing::Test {
 protected:
  void SetUp() override {
    auto bg = server::BackgroundServer::start(wildcard_server());
    ASSERT_TRUE(bg.ok()) << bg.error().message;
    server_ = std::move(*bg);
  }
  std::unique_ptr<server::BackgroundServer> server_;
};

TEST_F(DistReplay, TwoWorkersReplayEverythingOnce) {
  auto trace = small_trace();
  auto path = write_trace(trace, "two");
  auto cfg = base_config(server_->endpoint(), path);
  auto dr = replay::dist::run_distributed(cfg);
  ASSERT_TRUE(dr.ok()) << dr.error().message;
  EXPECT_EQ(dr->report.queries_sent, trace.size());
  EXPECT_EQ(dr->report.responses_received, trace.size());
  EXPECT_EQ(dr->report.worker_crashes, 0u);
  EXPECT_EQ(dr->report.workers_respawned, 0u);
  ASSERT_EQ(dr->workers.size(), 2u);
  EXPECT_TRUE(dr->any_misalign);
  // Same host, same clock: the barrier start lands within scheduling noise.
  EXPECT_LT(dr->max_abs_misalign, 50 * kMilli);
  std::remove(path.c_str());
}

TEST_F(DistReplay, KillNineRespawnsAndResumesWithExactCounters) {
  auto trace = small_trace();
  auto path = write_trace(trace, "kill");
  auto cfg = base_config(server_->endpoint(), path);

  auto clean = replay::dist::run_distributed(cfg);
  ASSERT_TRUE(clean.ok()) << clean.error().message;

  // SIGKILL worker 1 at 0.9 s — past several 200 ms checkpoints — and let
  // supervision respawn it from the shipped snapshot.
  cfg.kill_worker = 1;
  cfg.kill_after = 900 * kMilli;
  auto killed = replay::dist::run_distributed(cfg);
  ASSERT_TRUE(killed.ok()) << killed.error().message;

  EXPECT_EQ(killed->report.worker_crashes, 1u);
  EXPECT_EQ(killed->report.workers_respawned, 1u);
  EXPECT_EQ(killed->workers[1].crashes, 1u);
  // The exactness contract: nothing lost, nothing double-counted.
  EXPECT_EQ(killed->report.queries_sent, trace.size());
  replay::expect_same_counters(
      killed->report, clean->report,
      {{"worker_crashes", "the killed run crashes by design"},
       {"workers_respawned", "the killed run respawns by design"},
       {"max_drift_ns", "a clock-offset measurement, not a replay outcome"},
       {"lifecycle.adopted_resends",
        "the respawn resends what was in flight at the last checkpoint"},
       replay::kQueuePeakTiming, replay::kInFlightPeakTiming});
  std::remove(path.c_str());
}

// A real wedge, not a crash: worker 1's first incarnation is SIGSTOPped
// mid-replay by a wrapper around the worker binary. The stopped process
// sends no heartbeats, so the controller must SIGKILL it, reap it and
// respawn it from its last checkpoint, with the same exact books as a
// clean run.
TEST_F(DistReplay, SigstopWedgedWorkerIsKilledRespawnedAndExact) {
  auto trace = small_trace();
  auto path = write_trace(trace, "wedge");
  auto cfg = base_config(server_->endpoint(), path);
  cfg.heartbeat_timeout = kSecond;

  auto clean = replay::dist::run_distributed(cfg);
  ASSERT_TRUE(clean.ok()) << clean.error().message;

  // Only the first `--index 1` launch wedges; the marker file records that
  // launch's pid, and the respawn finds it and runs clean. Launch to
  // barrier start takes little more than the 400 ms start lead (handshake
  // and probe rounds are a few ms of one-write frames), so a stop 1.6 s
  // after launch lands about 1.2 s into the 2 s trace: mid-replay, after
  // the first checkpoints have shipped.
  const std::string stem =
      "/tmp/ldp_dist_test_wedge_" + std::to_string(::getpid());
  const std::string marker = stem + ".pid";
  const std::string wrapper = stem + ".sh";
  {
    std::ofstream sh(wrapper);
    sh << "#!/bin/sh\n"
       << "case \" $* \" in\n"
       << "  *\" --index 1 \"*)\n"
       << "    if [ ! -e " << marker << " ]; then\n"
       << "      echo $$ > " << marker << "\n"
       << "      (sleep 1.6; kill -STOP $$) &\n"
       << "    fi ;;\n"
       << "esac\n"
       << "exec " << LDP_WORKER_BIN << " \"$@\"\n";
  }
  ASSERT_EQ(::chmod(wrapper.c_str(), 0755), 0);
  cfg.worker_bin = wrapper;
  auto wedged = replay::dist::run_distributed(cfg);

  pid_t stopped = 0;
  std::ifstream(marker) >> stopped;
  std::remove(marker.c_str());
  std::remove(wrapper.c_str());
  ASSERT_GT(stopped, 0) << "the wrapper never wedged worker 1";
  // No stopped process left behind: the controller killed and reaped it.
  if (::kill(stopped, 0) == 0) {
    ADD_FAILURE() << "wedged worker " << stopped << " is still alive";
    ::kill(stopped, SIGKILL);
    ::waitpid(stopped, nullptr, 0);
  }
  ASSERT_TRUE(wedged.ok()) << wedged.error().message;

  EXPECT_EQ(wedged->report.worker_crashes, 1u);
  EXPECT_EQ(wedged->report.workers_respawned, 1u);
  EXPECT_EQ(wedged->workers[1].crashes, 1u);
  EXPECT_EQ(wedged->report.queries_sent, trace.size());
  replay::expect_same_counters(
      wedged->report, clean->report,
      {{"worker_crashes", "the wedged run crashes by design"},
       {"workers_respawned", "the wedged run respawns by design"},
       {"max_drift_ns", "a clock-offset measurement, not a replay outcome"},
       {"lifecycle.adopted_resends",
        "the respawn resends what was in flight at the last checkpoint"},
       replay::kQueuePeakTiming, replay::kInFlightPeakTiming});
  std::remove(path.c_str());
}

TEST_F(DistReplay, ExhaustedRespawnBudgetFallsBackInProcess) {
  auto trace = small_trace();
  auto path = write_trace(trace, "budget");
  auto cfg = base_config(server_->endpoint(), path);
  cfg.respawn_budget = 0;  // first crash exhausts the budget
  cfg.kill_worker = 0;
  cfg.kill_after = 900 * kMilli;
  auto dr = replay::dist::run_distributed(cfg);
  ASSERT_TRUE(dr.ok()) << dr.error().message;
  EXPECT_EQ(dr->report.worker_crashes, 1u);
  EXPECT_EQ(dr->report.workers_respawned, 0u);
  EXPECT_TRUE(dr->workers[0].fallback);
  // The controller replayed the dead slice itself, from the last shipped
  // checkpoint: totals still exact.
  EXPECT_EQ(dr->report.queries_sent, trace.size());
  EXPECT_EQ(dr->report.responses_received, trace.size());
  std::remove(path.c_str());
}

TEST_F(DistReplay, DriftCorrectionAlignsASkewedWorkerClock) {
  auto trace = small_trace(5 * kMilli, kSecond, 8);
  auto path = write_trace(trace, "drift");
  auto cfg = base_config(server_->endpoint(), path);
  // Worker 1 believes its clock reads 150 ms ahead of the controller's.
  cfg.worker_skew = {0, 150 * kMilli};

  auto corrected = replay::dist::run_distributed(cfg);
  ASSERT_TRUE(corrected.ok()) << corrected.error().message;
  // The probe rounds must actually see the skew...
  EXPECT_GT(corrected->report.max_drift_ns, 100 * kMilli);
  EXPECT_LT(corrected->report.max_drift_ns, 200 * kMilli);
  // ...and the corrected start instant cancels it: both workers fire
  // within scheduling noise of the barrier.
  EXPECT_TRUE(corrected->any_misalign);
  EXPECT_LT(corrected->max_abs_misalign, 50 * kMilli);

  // Regression guard: with correction disabled the skewed worker starts a
  // full skew early — the failure mode the correction exists to prevent.
  cfg.correct_drift = false;
  auto uncorrected = replay::dist::run_distributed(cfg);
  ASSERT_TRUE(uncorrected.ok()) << uncorrected.error().message;
  EXPECT_GT(uncorrected->max_abs_misalign, 100 * kMilli);
  EXPECT_LT(uncorrected->max_abs_misalign, 250 * kMilli);
  std::remove(path.c_str());
}

// --- checkpoints of a source-split querier pool -----------------------------

// "Sharded" here is the replay's source split over querier threads: the
// controller gathers every querier's snapshot into one checkpoint file,
// keyed by source and stream name, so the querier count never shows in it.
class ShardedCheckpoint : public ::testing::Test {
 protected:
  void SetUp() override {
    auto bg = server::BackgroundServer::start(wildcard_server());
    ASSERT_TRUE(bg.ok()) << bg.error().message;
    server_ = std::move(*bg);
  }

  // Timed pacing: an untimed blast overruns socket buffers and loses
  // responses nondeterministically, which would break the
  // resume-vs-uninterrupted exact-equality assertions below.
  replay::EngineConfig engine_config(size_t queriers) {
    replay::EngineConfig cfg;
    cfg.server = server_->endpoint();
    cfg.queriers_per_distributor = queriers;
    cfg.drain_grace = 2 * kSecond;
    return cfg;
  }

  std::unique_ptr<server::BackgroundServer> server_;
};

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

TEST_F(ShardedCheckpoint, OneFileAcrossQueriersAndResumeMatchesUninterrupted) {
  auto trace = small_trace();
  const std::string ckpt =
      "/tmp/ldp_dist_test_poolckpt_" + std::to_string(::getpid());

  auto uninterrupted =
      replay::QueryEngine(engine_config(4)).replay(trace);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.error().message;
  EXPECT_EQ(uninterrupted->queries_sent, trace.size());

  auto cfg = engine_config(4);
  cfg.checkpoint_path = ckpt;
  auto checkpointed = replay::QueryEngine(cfg).replay(trace);
  ASSERT_TRUE(checkpointed.ok()) << checkpointed.error().message;
  EXPECT_EQ(checkpointed->queries_sent, uninterrupted->queries_sent);

  // Exactly one file, holding every querier's sources; no per-querier or
  // per-shard siblings.
  ASSERT_TRUE(file_exists(ckpt));
  for (size_t i = 0; i < 4; ++i)
    EXPECT_FALSE(file_exists(ckpt + ".shard" + std::to_string(i))) << i;
  auto state = replay::load_checkpoint(ckpt);
  ASSERT_TRUE(state.ok()) << state.error().message;
  EXPECT_EQ(state->trace_hash, replay::trace_fingerprint(trace));
  EXPECT_EQ(state->partial.queries_sent, trace.size());
  EXPECT_EQ(state->sent.size(), 12u);  // every source of small_trace()

  // Resuming from the final snapshot replays nothing and reproduces the
  // uninterrupted totals exactly.
  auto resume_cfg = engine_config(4);
  resume_cfg.resume = &*state;
  auto resumed = replay::QueryEngine(resume_cfg).replay(trace);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  replay::expect_same_counters(
      *resumed, *uninterrupted,
      {replay::kQueuePeakTiming, replay::kInFlightPeakTiming});
  std::remove(ckpt.c_str());
}

// A cut taken mid-replay at four queriers resumes exactly at one: the
// state is keyed by source, so which querier sent what does not matter.
// The cut is a periodic snapshot of a run that goes on past it, which is
// what a kill right after that snapshot leaves behind.
TEST_F(ShardedCheckpoint, CutAtFourQueriersResumesExactlyAtOne) {
  auto trace = small_trace();

  auto uninterrupted =
      replay::QueryEngine(engine_config(1)).replay(trace);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.error().message;
  EXPECT_EQ(uninterrupted->queries_sent, trace.size());

  std::mutex mu;
  std::string cut;  // the first snapshot between a quarter and half way
  auto cfg = engine_config(4);
  cfg.checkpoint_interval = 100 * kMilli;
  cfg.checkpoint_sink = [&](const replay::CheckpointState& st) {
    uint64_t sent = st.partial.queries_sent;
    std::lock_guard lock(mu);
    if (cut.empty() && sent > trace.size() / 4 && sent < trace.size() / 2)
      cut = replay::serialize_checkpoint(st);
  };
  ASSERT_TRUE(replay::QueryEngine(cfg).replay(trace).ok());
  ASSERT_FALSE(cut.empty()) << "no snapshot landed mid-replay";

  auto state = replay::parse_checkpoint(cut);
  ASSERT_TRUE(state.ok()) << state.error().message;
  auto resume_cfg = engine_config(1);
  resume_cfg.resume = &*state;
  auto resumed = replay::QueryEngine(resume_cfg).replay(trace);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  EXPECT_EQ(resumed->queries_sent, trace.size());
  EXPECT_EQ(resumed->lifecycle.adopted_resends, state->pending.size());
  replay::expect_same_counters(
      *resumed, *uninterrupted,
      {{"lifecycle.adopted_resends",
        "the resume resends what was in flight at the cut"},
       replay::kQueuePeakTiming, replay::kInFlightPeakTiming});
}

// A cut whose every sent query is still in flight — taken at four queriers
// against an endpoint that never answers — resumes at one querier against a
// real server: each restored query is resent once over its own transport
// and answered, nothing expires, and every trace query is sent exactly once
// across the cut.
class RestoredInFlight : public ShardedCheckpoint,
                         public ::testing::WithParamInterface<Transport> {};

TEST_P(RestoredInFlight, EveryQueryInFlightAtTheCutIsAnsweredOnResume) {
  const Transport transport = GetParam();
  auto trace = small_trace();
  for (auto& rec : trace) rec.transport = transport;

  // The silent endpoint: UDP datagrams queue unread; TCP handshakes
  // complete in the accept queue of a listener nobody reads from.
  Endpoint silent{IpAddr{Ip4{127, 0, 0, 1}}, 0};
  std::optional<net::UdpSocket> udp_sink;
  std::optional<net::TcpListener> tcp_sink;
  if (transport == Transport::Udp) {
    auto sock = net::UdpSocket::bind(silent);
    ASSERT_TRUE(sock.ok()) << sock.error().message;
    udp_sink.emplace(std::move(*sock));
    silent = *udp_sink->local_endpoint();
  } else {
    auto listener = net::TcpListener::listen(silent);
    ASSERT_TRUE(listener.ok()) << listener.error().message;
    tcp_sink.emplace(std::move(*listener));
    silent = *tcp_sink->local_endpoint();
  }

  std::mutex mu;
  std::string cut;  // the first snapshot between a quarter and half way
  auto cfg = engine_config(4);
  cfg.server = silent;
  cfg.checkpoint_interval = 100 * kMilli;
  cfg.drain_grace = 100 * kMilli;  // nothing will answer
  cfg.checkpoint_sink = [&](const replay::CheckpointState& st) {
    uint64_t sent = st.partial.queries_sent;
    std::lock_guard lock(mu);
    if (cut.empty() && sent > trace.size() / 4 && sent < trace.size() / 2)
      cut = replay::serialize_checkpoint(st);
  };
  ASSERT_TRUE(replay::QueryEngine(cfg).replay(trace).ok());
  ASSERT_FALSE(cut.empty()) << "no snapshot landed mid-replay";

  auto state = replay::parse_checkpoint(cut);
  ASSERT_TRUE(state.ok()) << state.error().message;
  ASSERT_FALSE(state->pending.empty());
  // No query expires before its third timeout, seconds after the cut.
  EXPECT_EQ(state->pending.size(), state->partial.queries_sent);
  for (const auto& cp : state->pending) EXPECT_EQ(cp.transport, transport);

  auto resume_cfg = engine_config(1);
  resume_cfg.resume = &*state;
  resume_cfg.max_retries = 0;  // a retry would mask a lost resend
  auto resumed = replay::QueryEngine(resume_cfg).replay(trace);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  EXPECT_EQ(resumed->lifecycle.adopted_resends, state->pending.size());
  EXPECT_EQ(resumed->queries_sent, trace.size());
  EXPECT_EQ(resumed->responses_received + resumed->lifecycle.expired,
            resumed->queries_sent);
  EXPECT_EQ(resumed->lifecycle.expired, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, RestoredInFlight,
    ::testing::Values(Transport::Udp, Transport::Tcp),
    [](const ::testing::TestParamInfo<Transport>& info) {
      return std::string(info.param == Transport::Udp ? "Udp" : "Tcp");
    });

// Shards or distributors other than 1 are an error that names the one
// fan-out knob, and the other config checks still hold at several
// queriers.
TEST_F(ShardedCheckpoint, RemainingInvalidCombinationsStayErrors) {
  auto trace = small_trace(5 * kMilli, 200 * kMilli, 4);
  auto expect_refused = [](const Result<replay::EngineReport>& r,
                           const char* why) {
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find(why), std::string::npos)
        << r.error().message;
  };

  auto sharded = engine_config(2);
  sharded.shards = 2;
  expect_refused(replay::QueryEngine(sharded).replay(trace),
                 "queriers_per_distributor");
  auto two_tier = engine_config(2);
  two_tier.distributors = 2;
  expect_refused(replay::QueryEngine(two_tier).replay(trace),
                 "queriers_per_distributor");
  expect_refused(replay::QueryEngine(engine_config(0)).replay(trace),
                 "at least one querier");

  // A checkpoint of another trace is refused at any querier count.
  replay::CheckpointState foreign;
  foreign.trace_hash = 1;
  auto cfg = engine_config(4);
  cfg.resume = &foreign;
  expect_refused(replay::QueryEngine(cfg).replay(trace), "different trace");
}

}  // namespace
}  // namespace ldp

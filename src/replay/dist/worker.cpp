#include "replay/dist/worker.hpp"

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "fault/fault.hpp"
#include "net/socket.hpp"
#include "replay/checkpoint.hpp"
#include "replay/dist/protocol.hpp"
#include "replay/engine.hpp"
#include "trace/load.hpp"

namespace ldp::replay::dist {

namespace {

constexpr TimeNs kConnectTimeout = 10 * kSecond;

/// Control-channel state shared between the replay (main) thread, the
/// engine's checkpoint ticker thread (checkpoint sink) and the sender thread
/// that streams HEARTBEAT/PROGRESS/CHECKPOINT frames. One mutex serializes both
/// the snapshot fields and the socket writes — control traffic is a few
/// small frames per second, nowhere near contention.
struct ControlChannel {
  int fd = -1;
  TimeNs skew = 0;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  bool broken = false;  ///< a frame write failed; the controller is gone
  std::string checkpoint;        ///< latest serialized snapshot
  bool checkpoint_fresh = false; ///< unsent since the last snapshot
  uint64_t sent = 0;
  uint64_t received = 0;

  TimeNs wnow() const { return mono_now_ns() + skew; }

  /// Serialized frame send; records (rather than propagates) failure so
  /// the replay itself keeps running — the controller decides what a lost
  /// control channel means.
  void send_locked(FrameType type, const std::string& payload) {
    if (broken) return;
    auto sent_ok = send_frame(fd, type, payload);
    if (!sent_ok.ok()) broken = true;
  }
};

void sender_loop(ControlChannel* ch, TimeNs interval) {
  std::unique_lock lock(ch->mu);
  while (!ch->stop) {
    ch->cv.wait_for(lock, std::chrono::nanoseconds(interval),
                    [ch] { return ch->stop; });
    if (ch->stop) break;
    ch->send_locked(FrameType::Heartbeat, std::to_string(ch->wnow()) + "\n");
    ch->send_locked(FrameType::Progress,
                    encode_progress({ch->sent, ch->received}));
    if (ch->checkpoint_fresh) {
      ch->send_locked(FrameType::Checkpoint, ch->checkpoint);
      ch->checkpoint_fresh = false;
    }
  }
}

int fail(const char* what, const Error& e) {
  std::fprintf(stderr, "ldp-worker: %s: %s\n", what, e.message.c_str());
  return 1;
}

}  // namespace

int run_worker(const WorkerOptions& opts) {
  auto conn = net::tcp_connect_blocking(opts.controller, kConnectTimeout);
  if (!conn.ok()) return fail("connect", conn.error());
  const int fd = conn->get();

  HelloMsg hello;
  hello.worker = opts.index;
  hello.pid = static_cast<int64_t>(::getpid());
  auto sent = send_frame(fd, FrameType::Hello, encode_hello(hello));
  if (!sent.ok()) return fail("HELLO", sent.error());

  auto assign_frame = recv_frame(fd);
  if (!assign_frame.ok()) return fail("ASSIGN", assign_frame.error());
  if (!assign_frame->has_value() ||
      (*assign_frame)->type != FrameType::Assign)
    return fail("ASSIGN", Error{"controller closed before assignment"});
  auto assign = parse_assign((*assign_frame)->payload);
  if (!assign.ok()) return fail("ASSIGN", assign.error());

  auto trace = trace::load_trace_file(opts.trace_path);
  if (!trace.ok()) return fail("trace load", trace.error());
  auto slices = partition_by_source(*trace, assign->count);
  std::vector<trace::TraceRecord> slice = std::move(slices[assign->index]);

  CheckpointState resume_state;
  const bool resuming = !assign->resume.empty();
  if (resuming) {
    auto st = parse_checkpoint(assign->resume);
    if (!st.ok()) return fail("resume checkpoint", st.error());
    resume_state = std::move(*st);
  }

  // Barrier: announce readiness, answer drift probes with our (possibly
  // skewed) clock, then latch the start instant the controller chose.
  auto ready = send_frame(fd, FrameType::Barrier,
                          encode_barrier({BarrierMsg::Kind::Ready, 0, 0, 0}));
  if (!ready.ok()) return fail("BARRIER ready", ready.error());

  StartMsg start;
  while (true) {
    auto f = recv_frame(fd);
    if (!f.ok()) return fail("barrier wait", f.error());
    if (!f->has_value())
      return fail("barrier wait", Error{"controller closed during barrier"});
    if ((*f)->type == FrameType::Barrier) {
      auto probe = parse_barrier((*f)->payload);
      if (!probe.ok()) return fail("BARRIER", probe.error());
      if (probe->kind != BarrierMsg::Kind::Probe) continue;
      BarrierMsg echo{BarrierMsg::Kind::Echo, probe->seq, probe->t_ctrl,
                      mono_now_ns() + opts.skew};
      auto e = send_frame(fd, FrameType::Barrier, encode_barrier(echo));
      if (!e.ok()) return fail("BARRIER echo", e.error());
      continue;
    }
    if ((*f)->type == FrameType::Start) {
      auto s = parse_start((*f)->payload);
      if (!s.ok()) return fail("START", s.error());
      start = *s;
      break;
    }
    return fail("barrier wait",
                Error{std::string("unexpected ") +
                      frame_type_name((*f)->type) + " frame"});
  }

  std::fprintf(stderr,
               "ldp-worker %zu/%zu: %zu queries, drift offset %lld us%s\n",
               assign->index, assign->count, slice.size(),
               static_cast<long long>(start.offset / 1000),
               resuming ? " (resuming)" : "");

  // An empty slice (more workers than sources) still owes the controller a
  // report, or the merge would wait forever.
  if (slice.empty()) {
    auto r = send_frame(fd, FrameType::Report, encode_report(EngineReport{}));
    return r.ok() ? 0 : fail("REPORT", r.error());
  }

  ControlChannel channel;
  channel.fd = fd;
  channel.skew = opts.skew;

  EngineConfig cfg;
  cfg.server = assign->server;
  cfg.timed = assign->timed;
  cfg.queriers_per_distributor = assign->queriers;
  cfg.checkpoint_interval = assign->checkpoint_interval;
  if (!assign->fault_spec.empty()) {
    auto spec = fault::parse_fault_spec(assign->fault_spec);
    if (!spec.ok()) return fail("fault spec", spec.error());
    cfg.fault = *spec;
  }
  if (resuming) cfg.resume = &resume_state;
  cfg.checkpoint_sink = [&channel](const CheckpointState& st) {
    std::string blob = serialize_checkpoint(st);
    std::lock_guard lock(channel.mu);
    channel.sent = st.partial.queries_sent;
    channel.received = st.partial.responses_received;
    channel.checkpoint = std::move(blob);
    channel.checkpoint_fresh = true;
  };

  // The barrier start instant arrives in *our* protocol clock; the engine
  // schedules against raw CLOCK_MONOTONIC, so convert. A resumed worker
  // instead re-anchors at its first unsent record (the controller's start
  // instant synchronized the fleet that already replayed this prefix).
  ReplayClock shared;
  const ReplayClock* clock = nullptr;
  if (!resuming) {
    shared.start(start.trace_origin, start.start_at - opts.skew);
    clock = &shared;
  }

  std::thread sender(sender_loop, &channel, assign->heartbeat_interval);
  QueryEngine engine(cfg);
  auto report = engine.replay(slice, clock);
  {
    std::lock_guard lock(channel.mu);
    channel.stop = true;
  }
  channel.cv.notify_all();
  sender.join();

  if (!report.ok()) return fail("replay", report.error());
  auto shipped = send_frame(fd, FrameType::Report, encode_report(*report));
  if (!shipped.ok()) return fail("REPORT", shipped.error());
  return 0;
}

}  // namespace ldp::replay::dist

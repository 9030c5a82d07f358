#include "replay/engine.hpp"

#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>

#include "replay/checkpoint.hpp"
#include "replay/supervisor.hpp"
#include "util/log.hpp"

namespace ldp::replay {

using trace::TraceRecord;

namespace {
constexpr TimeNs kStartupLead = 100 * kMilli;  // let worker threads spin up
// Resend delay for queries that never reached the wire (kernel buffer
// full): short, so the backlog clears as soon as the kernel drains.
constexpr TimeNs kDeferredSendDelay = 10 * kMilli;
// Depth of each controller→querier queue; overload shedding starts here.
constexpr size_t kQueueCapacity = 4096;
}  // namespace

void EngineReport::merge_from(EngineReport&& other) {
  metrics::merge_counters(*this, other);
  latency_hist.merge(other.latency_hist);
  replay_end = std::max(replay_end, other.replay_end);
  // A resumed run merges a checkpoint's counters whose timing fields are
  // meaningless in this process — only widen from reports that have one.
  if (other.replay_start > 0 &&
      (replay_start == 0 || other.replay_start < replay_start))
    replay_start = other.replay_start;
  // Fast mode sends before the startup-lead origin; lower the start to the
  // first real send so duration/rate stay meaningful (timed sends are never
  // earlier than the origin, so this is a no-op there). A record with
  // send_time == 0 was never stamped — skip those.
  for (const auto& sr : other.sends) {
    if (sr.send_time > 0 && (replay_start == 0 || sr.send_time < replay_start))
      replay_start = sr.send_time;
  }
  sends.insert(sends.end(), std::make_move_iterator(other.sends.begin()),
               std::make_move_iterator(other.sends.end()));
}

std::vector<std::vector<TraceRecord>> partition_by_source(
    const std::vector<TraceRecord>& trace, size_t n) {
  std::vector<std::vector<TraceRecord>> slices(n);
  SourceSplit split(n);
  for (const auto& rec : trace) {
    if (rec.direction != trace::Direction::Query) continue;
    slices[split.slot_for(rec.src.addr)].push_back(rec);
  }
  return slices;
}

PushResult push_with_policy(BoundedQueue<TraceRecord>& q, TraceRecord& rec,
                            OverloadPolicy policy, TimeNs shed_grace,
                            OverloadLedger& ledger) {
  if (policy == OverloadPolicy::Block) return q.push_for(rec, -1);
  PushResult pr = q.push_for(rec, shed_grace);
  if (pr != PushResult::Full) return pr;
  if (policy == OverloadPolicy::DropOldest) {
    std::optional<TraceRecord> evicted;
    pr = q.evict_push(rec, evicted);
    if (pr == PushResult::Ok && evicted.has_value())
      ledger.shed.fetch_add(1, std::memory_order_relaxed);
    return pr;
  }
  TimeNs t0 = mono_now_ns();  // ClampRate
  pr = q.push_for(rec, -1);
  ledger.clamp_stall_ns.fetch_add(mono_now_ns() - t0, std::memory_order_relaxed);
  return pr;
}

namespace {

/// What one querier publishes for the checkpoint gatherer: a per-querier
/// consistent cut of its counters, in-flight queries, per-source sent
/// counts and fault-stream draw positions. Published by the querier thread
/// under a mutex; read by the checkpoint ticker thread.
struct QuerierSnapshot {
  bool valid = false;
  EngineReport partial;  ///< counters + histogram only, sends stay empty
  std::vector<CheckpointPending> pending;
  std::map<std::string, fault::FaultStream::Position> streams;
  std::map<std::string, uint64_t> sent;
};

}  // namespace

// ---------------------------------------------------------------------------
// Querier: one thread, one event loop, sockets pinned per query source.
// Every in-flight query lives in exactly one PendingTable (per UDP socket /
// per TCP connection) from send until a terminal outcome: answered,
// timed-out after the retry budget, or errored. A single lifecycle timer,
// armed at the earliest deadline across tables, drives retransmits and
// expiry, so pending state is bounded by the retry window even when the
// server never answers.
//
// A query enters a querier in one of two ways: as a fresh trace record
// through its queue, or, on resume, as a checkpoint's in-flight query
// handed to the constructor. The restored ones are resent before the event
// loop starts, each with its own send record in this querier's report.
// Every attempt — fresh, restored or retry — reaches the wire through one
// function per transport: stage_udp or send_tcp.
// ---------------------------------------------------------------------------
class QueryEngine::Querier {
 public:
  Querier(uint32_t id, const EngineConfig& config, const ReplayClock& clock,
          std::vector<CheckpointPending> restored)
      : id_(id),
        config_(config),
        clock_(clock),
        queue_(kQueueCapacity),
        restored_(std::move(restored)) {
    wake_fd_ = net::Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    thread_ = std::thread([this] { run(); });
  }

  ~Querier() {
    if (thread_.joinable()) thread_.join();
  }

  BoundedQueue<TraceRecord>& queue() { return queue_; }
  size_t queue_high_water() const { return queue_.high_water(); }

  void wake() {
    uint64_t one = 1;
    ssize_t r = ::write(wake_fd_.get(), &one, sizeof(one));
    (void)r;
  }

  void finish() {
    queue_.close();
    wake();
  }

  QuerierSnapshot snapshot() const {
    std::lock_guard lock(snap_mu_);
    return snap_;
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  EngineReport take_report() {
    join();
    for (const auto& [name, stream] : fault_streams_)
      report_.impairments.merge(stream->counters());
    return std::move(report_);
  }

 private:
  /// Which attempt a send is: a query's first, trace-scheduled send; a
  /// resend of a query restored from a checkpoint; or a retransmit after a
  /// timeout. The kinds differ in their deadline origin and in how a failed
  /// send is accounted.
  enum class SendKind : uint8_t { Fresh, Adopted, Retry };

  /// One UDP send waiting for the per-round sendmmsg flush. The pending
  /// query lives here (not in the table) until the flush resolves its
  /// outcome; staged_count_ keeps maybe_finish honest.
  struct StagedSend {
    PendingQuery pq;
    SendKind kind;
  };

  struct UdpSock {
    std::unique_ptr<net::ImpairedUdpSocket> sock;
    PendingTable pending;
    // Queries staged during one poll round, flushed FIFO with one
    // send_batch by the loop's flush hook.
    std::vector<StagedSend> stage;
    std::vector<net::UdpSocket::OutDatagram> stage_dgs;        // flush scratch
    std::vector<net::ImpairedUdpSocket::SendOutcome> outcomes;  // flush scratch
  };

  struct TcpConn {
    net::TcpStream stream;
    bool connected = false;
    TimeNs last_activity = 0;
    uint32_t reconnects_used = 0;  // reconnect budget consumed for this source
    std::vector<std::vector<uint8_t>> backlog;  // queued until connected
    PendingTable pending;
    // Per-source impairment stream (owned by the querier's stream map, so
    // the draw sequence survives reconnects).
    fault::FaultStream* fault = nullptr;
    // Slowloris injection (fault knob slow_client): a slow connection never
    // sends a whole frame — framed queries join drip_out and trickle one
    // byte per slow_drip interval, holding the server's reassembly buffer
    // open exactly like a hostile client would.
    bool slow = false;
    std::vector<uint8_t> drip_out;
    size_t drip_pos = 0;
    bool drip_armed = false;

    explicit TcpConn(net::TcpStream s) : stream(std::move(s)) {}
  };

  SendRecord& record_of(const PendingQuery& pq) {
    return report_.sends[pq.send_index];
  }

  /// Per-source fault stream, created on first use; nullptr when the
  /// engine runs without an impairment scenario. The name is derived from
  /// the *original trace source*, not the querier, so the pattern a source
  /// sees is partition-independent (querier-count and worker equivalence).
  /// On resume the stream fast-forwards to its checkpointed draw position.
  fault::FaultStream* fault_stream(const char* prefix, const IpAddr& source) {
    if (!config_.fault.has_value()) return nullptr;
    std::string name = std::string(prefix) + source.to_string();
    auto it = fault_streams_.find(name);
    if (it == fault_streams_.end()) {
      it = fault_streams_
               .emplace(name, std::make_unique<fault::FaultStream>(*config_.fault,
                                                                   name))
               .first;
      if (config_.resume != nullptr) {
        auto rit = config_.resume->streams.find(name);
        if (rit != config_.resume->streams.end())
          it->second->restore(rit->second, clock_.real_origin());
      }
    }
    return it->second.get();
  }

  /// Cumulative queries sent for one source, lazily seeded from the resume
  /// checkpoint so snapshots always carry whole-replay counts.
  uint64_t& sent_count_for(const IpAddr& source) {
    auto it = sent_per_source_.find(source);
    if (it == sent_per_source_.end()) {
      uint64_t base = 0;
      if (config_.resume != nullptr) {
        auto rit = config_.resume->sent.find(source.to_string());
        if (rit != config_.resume->sent.end()) base = rit->second;
      }
      it = sent_per_source_.emplace(source, base).first;
    }
    return it->second;
  }

  void run() {
    auto add = loop_.add_fd(wake_fd_.get(), net::Interest{true, false},
                            [this](bool, bool) { on_wake(); });
    if (add.ok()) {
      loop_.add_flush_hook([this] { flush_all_udp(); });
      resend_restored();
      if (config_.checkpointing()) arm_snapshot();
      loop_.run();
    }
    finalize_report();
  }

  /// Resend the in-flight queries a checkpoint handed this querier, ahead
  /// of any fresh record. Each gets a send record of its own; the original
  /// monotonic timestamps died with the checkpointed process, so latency
  /// restarts from this resend.
  void resend_restored() {
    for (auto& cp : restored_) {
      TimeNs now = mono_now_ns();
      SendRecord sr = cp.record;
      sr.send_time = now;
      sr.latency = -1;
      sr.outcome = QueryOutcome::Pending;
      PendingQuery pq;
      pq.key = next_key_++;
      pq.dns_id = dns_id_of(cp.payload).value_or(0);
      pq.retries_used = cp.retries_used;
      pq.send_index = report_.sends.size();
      pq.transport = cp.transport;
      pq.first_send = now;
      pq.source = sr.source;
      pq.payload = std::move(cp.payload);
      report_.sends.push_back(sr);
      ++report_.lifecycle.adopted_resends;
      dispatch(std::move(pq), SendKind::Adopted, now);
    }
    restored_ = {};
  }

  void arm_snapshot() {
    publish_snapshot();
    loop_.add_timer_after(config_.checkpoint_interval,
                          [this] { arm_snapshot(); });
  }

  void publish_snapshot() {
    if (!config_.checkpointing()) return;
    QuerierSnapshot s;
    s.valid = true;
    // Every counter (merged into an empty report: a copy) plus the
    // histogram; never the sends. report_.impairments stays zero until
    // take_report, so the streams below are the only impairment source.
    metrics::merge_counters(s.partial, report_);
    s.partial.latency_hist = report_.latency_hist;
    for (const auto& [name, stream] : fault_streams_) {
      s.partial.impairments.merge(stream->counters());
      s.streams[name] = stream->position(clock_.real_origin());
    }
    auto snap_pending = [&](const PendingQuery& pq) {
      CheckpointPending cp;
      cp.record = record_of(pq);
      cp.transport = pq.transport;
      cp.retries_used = pq.retries_used;
      cp.payload = pq.payload;
      s.pending.push_back(std::move(cp));
    };
    for (const auto& [source, us] : udp_socks_) {
      us->pending.for_each(snap_pending);
      // Staged sends are in flight for checkpoint purposes: losing them on
      // resume would silently drop queries the schedule already committed.
      for (const auto& st : us->stage) snap_pending(st.pq);
    }
    for (const auto& [source, conn] : tcp_conns_) conn->pending.for_each(snap_pending);
    for (const auto& [source, n] : sent_per_source_)
      s.sent[source.to_string()] = n;
    std::lock_guard lock(snap_mu_);
    snap_ = std::move(s);
  }

  void on_wake() {
    uint64_t buf;
    while (::read(wake_fd_.get(), &buf, sizeof(buf)) > 0) {
    }
    // Drain the input queue without blocking: try_pop via size probe (this
    // thread is the only consumer).
    while (true) {
      if (queue_.size() == 0) break;
      auto rec = queue_.pop();
      if (!rec.has_value()) break;
      handle_record(std::move(*rec));
    }
    if (queue_.closed_and_empty()) {
      input_done_ = true;
      maybe_finish();
    }
  }

  void handle_record(TraceRecord rec) {
    if (config_.timed) {
      TimeNs deadline = clock_.deadline_for(rec.timestamp);
      if (deadline > mono_now_ns()) {
        ++pending_timers_;
        loop_.add_timer_at(deadline, [this, rec = std::move(rec)] {
          --pending_timers_;
          send_query(rec);
          maybe_finish();
        });
        return;
      }
    }
    send_query(rec);  // behind schedule or fast mode: send immediately
  }

  void note_in_flight(int64_t delta) {
    in_flight_ += delta;
    report_.max_in_flight =
        std::max(report_.max_in_flight, static_cast<uint64_t>(in_flight_));
  }

  void send_query(const TraceRecord& rec) {
    SendRecord sr;
    sr.trace_time = rec.timestamp;
    sr.send_time = mono_now_ns();
    sr.source = rec.src.addr;
    sr.querier = id_;
    ++report_.queries_sent;
    ++sent_count_for(rec.src.addr);

    PendingQuery pq;
    pq.key = next_key_++;
    pq.dns_id = dns_id_of(rec.dns_payload).value_or(0);
    pq.send_index = report_.sends.size();
    pq.transport = rec.transport;
    pq.first_send = sr.send_time;
    pq.source = rec.src.addr;
    pq.payload = rec.dns_payload;
    report_.sends.push_back(sr);
    dispatch(std::move(pq), SendKind::Fresh, sr.send_time);
  }

  /// A query's first attempt (fresh or restored) onto its transport's one
  /// send path.
  void dispatch(PendingQuery pq, SendKind kind, TimeNs now) {
    if (pq.transport != Transport::Udp) {
      send_tcp(std::move(pq), kind, now);
      return;
    }
    UdpSock* us = udp_socket_for(pq.source);
    if (us == nullptr) {
      fail_send(pq, kind);
      return;
    }
    stage_udp(*us, std::move(pq), kind);
  }

  UdpSock* udp_socket_for(const IpAddr& source) {
    auto it = udp_socks_.find(source);
    if (it != udp_socks_.end()) return it->second.get();
    auto sock = net::UdpSocket::bind(Endpoint{IpAddr{Ip4{127, 0, 0, 1}}, 0});
    if (!sock.ok()) return nullptr;
    auto owned = std::make_unique<UdpSock>();
    owned->sock = std::make_unique<net::ImpairedUdpSocket>(
        std::move(*sock), fault_stream("udp:", source), &loop_);
    UdpSock* raw = owned.get();
    auto add = loop_.add_fd(raw->sock->fd(), net::Interest{true, false},
                            [this, raw](bool, bool) { on_udp_readable(raw); });
    if (!add.ok()) return nullptr;
    udp_socks_.emplace(source, std::move(owned));
    return raw;
  }

  // ---- UDP send path: stage, then one send_batch per socket per round ----

  void stage_udp(UdpSock& us, PendingQuery pq, SendKind kind) {
    us.stage.push_back(StagedSend{std::move(pq), kind});
    ++staged_count_;
  }

  /// Flush-hook body: one send_batch per socket covers everything staged
  /// during this poll round (the hook runs after due timers and before the
  /// loop blocks, so no send ever sits across an epoll_wait).
  void flush_all_udp() {
    if (staged_count_ == 0) return;
    for (auto& [source, us] : udp_socks_) flush_udp(*us);
    maybe_finish();
  }

  /// Each staged send resolves on its own outcome, FIFO: a refused
  /// datagram fails only its query, a full kernel buffer defers it.
  void flush_udp(UdpSock& us) {
    if (us.stage.empty()) return;
    std::vector<StagedSend> batch;
    batch.swap(us.stage);
    staged_count_ -= batch.size();
    us.stage_dgs.clear();
    for (const auto& st : batch)
      us.stage_dgs.push_back({config_.server, st.pq.payload});
    us.sock->send_batch(us.stage_dgs, us.outcomes);
    TimeNs now = mono_now_ns();
    using Outcome = net::ImpairedUdpSocket::SendOutcome;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (us.outcomes[i] == Outcome::Error) {
        fail_send(batch[i].pq, batch[i].kind);
      } else {
        finish_udp_send(us, std::move(batch[i]),
                        us.outcomes[i] == Outcome::Left, now);
      }
    }
  }

  /// Account a send that can never reach the wire (no socket or connection
  /// for the source, or the kernel refused the datagram).
  void fail_send(PendingQuery& pq, SendKind kind) {
    SendRecord& sr = record_of(pq);
    ++report_.send_errors;
    switch (kind) {
      case SendKind::Fresh:  // never in flight
        sr.outcome = QueryOutcome::Errored;
        break;
      case SendKind::Adopted:  // in flight at the cut: it expires here
        sr.outcome = QueryOutcome::Errored;
        ++report_.lifecycle.expired;
        break;
      case SendKind::Retry:  // was in flight: it expires here
        ++report_.lifecycle.expired;
        sr.outcome = QueryOutcome::Errored;
        note_in_flight(-1);
        break;
    }
  }

  /// Post-send bookkeeping for one flushed entry. `on_wire` false means the
  /// kernel buffer was full: the query waits in the pending table and the
  /// lifecycle timer sends it again shortly — deferred, not lost.
  void finish_udp_send(UdpSock& us, StagedSend st, bool on_wire, TimeNs now) {
    PendingQuery pq = std::move(st.pq);
    if (st.kind == SendKind::Retry) {
      // wire_sent still says whether an earlier attempt reached the wire.
      SendRecord& sr = record_of(pq);
      bool was_on_wire = pq.wire_sent;
      if (was_on_wire) {
        ++report_.lifecycle.retries;
        ++sr.retries;
      } else if (on_wire) {
        // First time this query reached the wire; latency still counts
        // from the original send attempt.
        ++report_.lifecycle.deferred_sends;
      }
      pq.wire_sent = was_on_wire || on_wire;
      pq.deadline = now + (pq.wire_sent
                               ? retry_backoff(config_.query_timeout,
                                               pq.retries_used,
                                               config_.retry_backoff_cap)
                               : kDeferredSendDelay);
      TimeNs deadline = pq.deadline;
      us.pending.insert(std::move(pq));  // reinsert: not a fresh collision
      schedule_lifecycle(deadline);
      return;
    }
    // Fresh and restored sends share the post-send shape; they differ only
    // in the deadline origin (trace send time vs flush time).
    pq.wire_sent = on_wire;
    if (!on_wire) ++report_.lifecycle.deferred_sends;
    TimeNs base = st.kind == SendKind::Fresh ? pq.first_send : now;
    pq.deadline = base + (on_wire ? config_.query_timeout : kDeferredSendDelay);
    TimeNs deadline = pq.deadline;
    if (us.pending.insert(std::move(pq))) ++report_.lifecycle.duplicate_ids;
    note_in_flight(+1);
    schedule_lifecycle(deadline);
  }

  TcpConn* tcp_conn_for(const IpAddr& source) {
    auto it = tcp_conns_.find(source);
    if (it != tcp_conns_.end()) return it->second.get();
    auto stream = net::TcpStream::connect(config_.server);
    if (!stream.ok()) return nullptr;
    auto owned = std::make_unique<TcpConn>(std::move(*stream));
    TcpConn* raw = owned.get();
    raw->fault = fault_stream("tcp:", source);
    // Slow-client verdict is a pure function of (seed, per-querier open
    // order), so a fixed-seed run injects the same slowloris mix every time.
    raw->slow = config_.fault.has_value() &&
                config_.fault->is_slow_client(tcp_conn_seq_++);
    (void)raw->stream.set_nodelay(true);  // §5.2.1 disables Nagle at clients
    auto add = loop_.add_fd(raw->stream.fd(), net::Interest{true, true},
                            [this, source, raw](bool readable, bool writable) {
                              on_tcp_event(source, raw, readable, writable);
                            });
    if (!add.ok()) return nullptr;
    ++report_.connections_opened;
    tcp_conns_.emplace(source, std::move(owned));
    if (sweep_timer_ == 0) arm_sweep();
    return raw;
  }

  /// The one TCP attempt path: backlog the query until its connection is
  /// up, or put it on the wire, then track it in the connection's pending
  /// table. A first attempt (fresh or restored) counts as a new in-flight
  /// query and arms its timeout; a retry re-tracks an entry the lifecycle
  /// timer already owns, and that timer re-arms itself.
  void send_tcp(PendingQuery pq, SendKind kind, TimeNs now) {
    TcpConn* conn = tcp_conn_for(pq.source);  // reuse, or reopen if it vanished
    if (conn == nullptr) {
      fail_send(pq, kind);
      return;
    }
    if (kind == SendKind::Retry) {
      SendRecord& sr = record_of(pq);
      ++report_.lifecycle.retries;
      ++sr.retries;
      pq.deadline = now + retry_backoff(config_.query_timeout, pq.retries_used,
                                        config_.retry_backoff_cap);
    } else {
      conn->last_activity = now;
      pq.deadline = now + config_.query_timeout;
    }
    const IpAddr source = pq.source;
    const TimeNs deadline = pq.deadline;
    auto out = net::TcpSendOutcome::Sent;
    size_t still_pending = 0;
    if (conn->connected)
      out = tcp_send(conn, source, now, pq.payload, &still_pending);
    else
      conn->backlog.push_back(pq.payload);
    // A retry's id collision is not a fresh one.
    if (conn->pending.insert(std::move(pq)) && kind != SendKind::Retry)
      ++report_.lifecycle.duplicate_ids;
    if (kind != SendKind::Retry) note_in_flight(+1);
    if (out == net::TcpSendOutcome::Error ||
        out == net::TcpSendOutcome::LinkDown) {
      // Connection broke mid-send (or the link flapped away under it): the
      // pending entry survives in the table, so the reconnect path resends
      // it.
      close_tcp(source, /*lost=*/true);
      return;
    }
    // An Eaten message simply stays pending; the lifecycle timer resends it
    // like any other timeout. Bytes left behind by a full kernel buffer
    // wait for writability.
    if (still_pending > 0)
      (void)loop_.modify_fd(conn->stream.fd(), net::Interest{true, true});
    if (kind != SendKind::Retry) schedule_lifecycle(deadline);
  }

  /// Single choke point for putting a framed query on a TCP connection.
  /// Normal connections go through the impairment layer; a slow_client
  /// connection instead queues the frame for one-byte-at-a-time dripping
  /// and reports Sent — the query then ages out through the ordinary
  /// timeout/retry lifecycle, which is precisely what a slowloris victim
  /// sees.
  net::TcpSendOutcome tcp_send(TcpConn* conn, const IpAddr& source, TimeNs now,
                               const std::vector<uint8_t>& payload,
                               size_t* pending_out = nullptr) {
    if (pending_out != nullptr) *pending_out = 0;
    if (conn->slow) {
      conn->drip_out.push_back(static_cast<uint8_t>(payload.size() >> 8));
      conn->drip_out.push_back(static_cast<uint8_t>(payload.size() & 0xff));
      conn->drip_out.insert(conn->drip_out.end(), payload.begin(),
                            payload.end());
      arm_drip(conn, source);
      return net::TcpSendOutcome::Sent;
    }
    return net::impaired_tcp_send(conn->stream, conn->fault, now, payload,
                                  pending_out);
  }

  void arm_drip(TcpConn* conn, const IpAddr& source) {
    if (conn->drip_armed || !conn->connected) return;
    conn->drip_armed = true;
    TimeNs interval =
        config_.fault.has_value() ? config_.fault->slow_drip : 100 * kMilli;
    // The timer holds only the source key: if the connection is gone (or
    // replaced by a reconnect) when it fires, the lookup resolves to
    // whatever is current and the stale drip state dies with the old conn.
    loop_.add_timer_after(interval, [this, source] { drip_tick(source); });
  }

  void drip_tick(const IpAddr& source) {
    auto it = tcp_conns_.find(source);
    if (it == tcp_conns_.end()) return;
    TcpConn* conn = it->second.get();
    conn->drip_armed = false;
    if (conn->drip_pos < conn->drip_out.size()) {
      uint8_t byte = conn->drip_out[conn->drip_pos];
      ssize_t n = ::send(conn->stream.fd(), &byte, 1, MSG_NOSIGNAL);
      if (n == 1) ++conn->drip_pos;
      // EAGAIN (or a dying socket): retry next tick; a real failure
      // surfaces through the readable path as a close.
    }
    if (conn->drip_pos < conn->drip_out.size()) arm_drip(conn, source);
  }

  void on_udp_readable(UdpSock* us) {
    // Drain with recvmmsg: the views alias the socket's receive arena,
    // valid until the next recv_batch call — match_response consumes them
    // before then.
    while (true) {
      auto batch = us->sock->recv_batch();
      if (!batch.ok()) {
        ++report_.lifecycle.socket_errors;
        return;
      }
      if (batch->empty()) return;
      for (const auto& view : *batch) match_response(view.payload, us->pending);
    }
  }

  void on_tcp_event(const IpAddr& source, TcpConn* conn, bool readable,
                    bool writable) {
    if (writable && !conn->connected) {
      conn->connected = true;
      TimeNs now = mono_now_ns();
      for (auto& msg : conn->backlog) {
        auto out = tcp_send(conn, source, now, msg);
        if (out == net::TcpSendOutcome::Error ||
            out == net::TcpSendOutcome::LinkDown) {
          close_tcp(source, /*lost=*/true);
          return;
        }
        // Eaten messages stay pending and resend on timeout.
      }
      conn->backlog.clear();
      // Keep write interest while the flush left bytes behind — dropping it
      // here would strand a partial send forever.
      (void)loop_.modify_fd(conn->stream.fd(),
                            net::Interest{true, conn->stream.pending_bytes() > 0});
    } else if (writable) {
      auto pending = conn->stream.flush();
      if (!pending.ok()) {
        close_tcp(source, /*lost=*/true);
        return;
      }
      if (*pending == 0)
        (void)loop_.modify_fd(conn->stream.fd(), net::Interest{true, false});
    }
    if (readable) {
      bool closed = false;
      auto messages = conn->stream.read_messages(closed);
      if (messages.ok()) {
        for (const auto& msg : *messages) match_response(msg, conn->pending);
      } else {
        ++report_.lifecycle.socket_errors;
      }
      conn->last_activity = mono_now_ns();
      if (closed || !messages.ok()) close_tcp(source, /*lost=*/true);
    }
  }

  /// Tear down a TCP connection. `lost` marks an involuntary loss (peer
  /// close or socket error): unanswered queries are then resent over a
  /// fresh connection while the per-source reconnect budget lasts; beyond
  /// it (or on voluntary idle close) they become Errored.
  void close_tcp(const IpAddr& source, bool lost) {
    auto it = tcp_conns_.find(source);
    if (it == tcp_conns_.end()) return;
    loop_.remove_fd(it->second->stream.fd());
    std::vector<PendingQuery> orphans = it->second->pending.drain();
    uint32_t reconnects_used = it->second->reconnects_used;
    tcp_conns_.erase(it);
    if (orphans.empty()) return;

    TcpConn* fresh = nullptr;
    if (lost && reconnects_used < config_.max_tcp_reconnects) {
      fresh = tcp_conn_for(source);
      if (fresh != nullptr) {
        fresh->reconnects_used = reconnects_used + 1;
        ++report_.lifecycle.tcp_reconnects;
      }
    }
    TimeNs now = mono_now_ns();
    for (auto& pq : orphans) {
      SendRecord& sr = record_of(pq);
      if (fresh != nullptr && pq.retries_used < config_.max_retries) {
        ++pq.retries_used;
        ++sr.retries;
        ++report_.lifecycle.retries;
        pq.deadline = now + retry_backoff(config_.query_timeout,
                                          pq.retries_used,
                                          config_.retry_backoff_cap);
        TimeNs deadline = pq.deadline;
        fresh->backlog.push_back(pq.payload);
        fresh->pending.insert(std::move(pq));
        schedule_lifecycle(deadline);
      } else {
        ++report_.lifecycle.expired;
        sr.outcome = QueryOutcome::Errored;
        note_in_flight(-1);
      }
    }
    maybe_finish();
  }

  void arm_sweep() {
    sweep_timer_ = loop_.add_timer_after(kSecond, [this] {
      TimeNs cutoff = mono_now_ns() - config_.tcp_idle_timeout;
      for (auto it = tcp_conns_.begin(); it != tcp_conns_.end();) {
        auto next = std::next(it);
        if (it->second->last_activity < cutoff)
          close_tcp(it->first, /*lost=*/false);
        it = next;
      }
      sweep_timer_ = 0;
      if (!tcp_conns_.empty()) arm_sweep();
      maybe_finish();
    });
  }

  // ---- lifecycle timer: timeouts, retransmits, bounded expiry ----

  /// Arm (or pull earlier) the single timer that fires at the earliest
  /// pending deadline across every table this querier owns.
  void schedule_lifecycle(TimeNs deadline) {
    if (lifecycle_timer_ != 0) {
      if (deadline >= lifecycle_deadline_) return;
      loop_.cancel_timer(lifecycle_timer_);
    }
    lifecycle_deadline_ = deadline;
    lifecycle_timer_ =
        loop_.add_timer_at(deadline, [this] { on_lifecycle_due(); });
  }

  void on_lifecycle_due() {
    lifecycle_timer_ = 0;
    TimeNs now = mono_now_ns();
    for (auto& [source, us] : udp_socks_) {
      for (auto& pq : us->pending.take_due(now))
        handle_udp_due(*us, std::move(pq));
    }
    // Collect due TCP entries first: handling one may close/reopen
    // connections, which mutates tcp_conns_ mid-iteration otherwise.
    std::vector<PendingQuery> tcp_due;
    for (auto& [source, conn] : tcp_conns_) {
      for (auto& pq : conn->pending.take_due(now)) tcp_due.push_back(std::move(pq));
    }
    for (auto& pq : tcp_due) handle_tcp_due(std::move(pq), now);
    rearm_lifecycle();
    maybe_finish();
  }

  void rearm_lifecycle() {
    std::optional<TimeNs> next;
    auto consider = [&next](std::optional<TimeNs> d) {
      if (d.has_value() && (!next.has_value() || *d < *next)) next = d;
    };
    for (auto& [source, us] : udp_socks_) consider(us->pending.next_deadline());
    for (auto& [source, conn] : tcp_conns_) consider(conn->pending.next_deadline());
    if (next.has_value()) schedule_lifecycle(*next);
  }

  void handle_udp_due(UdpSock& us, PendingQuery pq) {
    SendRecord& sr = record_of(pq);
    if (pq.wire_sent) ++report_.lifecycle.timeouts;
    if (pq.retries_used >= config_.max_retries) {
      ++report_.lifecycle.expired;
      sr.outcome = pq.wire_sent ? QueryOutcome::TimedOut : QueryOutcome::Errored;
      note_in_flight(-1);
      return;
    }
    ++pq.retries_used;
    stage_udp(us, std::move(pq), SendKind::Retry);
  }

  void handle_tcp_due(PendingQuery pq, TimeNs now) {
    SendRecord& sr = record_of(pq);
    ++report_.lifecycle.timeouts;
    if (pq.retries_used >= config_.max_retries) {
      ++report_.lifecycle.expired;
      sr.outcome = QueryOutcome::TimedOut;
      note_in_flight(-1);
      return;
    }
    ++pq.retries_used;
    send_tcp(std::move(pq), SendKind::Retry, now);
  }

  void match_response(std::span<const uint8_t> payload, PendingTable& pending) {
    auto id = dns_id_of(payload);
    if (!id.has_value()) return;
    auto pq = pending.match(*id);
    if (!pq.has_value()) {
      // Late (already expired) or unsolicited — the id names no live query.
      ++report_.lifecycle.unmatched_responses;
      return;
    }
    SendRecord& sr = record_of(*pq);
    sr.latency = mono_now_ns() - sr.send_time;
    sr.outcome = QueryOutcome::Answered;
    ++report_.responses_received;
    report_.latency_hist.add(sr.latency);
    if (sr.retries > 0) ++report_.lifecycle.answered_after_retry;
    note_in_flight(-1);
    maybe_finish();
  }

  void maybe_finish() {
    if (!input_done_ || pending_timers_ > 0 || stopping_) return;
    // Every query reaches a terminal outcome (answer, expiry, error), so
    // in-flight hitting zero is the natural end; drain_grace only caps the
    // wait when the retry/expiry schedule outlives the caller's patience.
    // Staged-but-unflushed sends count as in flight.
    if (in_flight_ == 0 && staged_count_ == 0) {
      stopping_ = true;
      loop_.stop();
      return;
    }
    if (drain_timer_ == 0) {
      drain_timer_ = loop_.add_timer_after(config_.drain_grace, [this] {
        stopping_ = true;
        loop_.stop();
      });
    }
  }

  void finalize_report() {
    // Put any still-staged sends on the wire (or into the pending tables,
    // where the abandonment sweep below accounts them) before counting.
    flush_all_udp();
    // Queries still pending at shutdown (drain_grace fired before their
    // expiry) are abandoned: counted, never silently lost.
    auto abandon = [this](PendingQuery&& pq) {
      SendRecord& sr = record_of(pq);
      if (sr.outcome != QueryOutcome::Pending) return;
      sr.outcome = pq.wire_sent ? QueryOutcome::TimedOut : QueryOutcome::Errored;
      ++report_.lifecycle.expired;
    };
    for (auto& [source, us] : udp_socks_)
      for (auto& pq : us->pending.drain()) abandon(std::move(pq));
    for (auto& [source, conn] : tcp_conns_)
      for (auto& pq : conn->pending.drain()) abandon(std::move(pq));
    for (const auto& sr : report_.sends) {
      report_.replay_end = std::max(report_.replay_end, sr.send_time);
    }
    // Final (quiescent) snapshot: pending tables are empty, counters final.
    publish_snapshot();
  }

  uint32_t id_;
  const EngineConfig& config_;
  const ReplayClock& clock_;
  BoundedQueue<TraceRecord> queue_;
  net::Fd wake_fd_;
  net::EventLoop loop_;
  std::thread thread_;

  std::unordered_map<IpAddr, std::unique_ptr<UdpSock>, IpAddrHash> udp_socks_;
  std::unordered_map<IpAddr, std::unique_ptr<TcpConn>, IpAddrHash> tcp_conns_;
  uint64_t tcp_conn_seq_ = 0;  // per-querier open order, keys is_slow_client()
  // Named per-source impairment streams ("udp:<src>" / "tcp:<src>"),
  // created lazily; they outlive reconnects so a source's draw sequence is
  // continuous for the whole replay.
  std::unordered_map<std::string, std::unique_ptr<fault::FaultStream>>
      fault_streams_;

  EngineReport report_;
  uint64_t next_key_ = 1;
  int64_t in_flight_ = 0;
  size_t staged_count_ = 0;  ///< UDP sends awaiting the sendmmsg flush
  size_t pending_timers_ = 0;
  bool input_done_ = false;
  bool stopping_ = false;
  net::EventLoop::TimerId drain_timer_ = 0;
  net::EventLoop::TimerId sweep_timer_ = 0;
  net::EventLoop::TimerId lifecycle_timer_ = 0;
  TimeNs lifecycle_deadline_ = 0;

  // Per-source cumulative sent counts (checkpoint trace positions).
  std::unordered_map<IpAddr, uint64_t, IpAddrHash> sent_per_source_;

  // In-flight queries restored from a checkpoint, moved in before the
  // thread starts and resent by run() before the loop does anything else.
  std::vector<CheckpointPending> restored_;

  // Latest published checkpoint snapshot.
  mutable std::mutex snap_mu_;
  QuerierSnapshot snap_;
};

// ---------------------------------------------------------------------------
// QueryEngine: the controller (Reader + Postman). It applies the live
// mutator and the resume skip on its own thread, then pushes each record
// straight onto its querier's queue, same-source sticky (SourceSplit): one
// queue hop per query. Overload shedding applies at that hop: a full
// querier queue either back-pressures (Block), evicts the oldest record
// with accounting (DropOldest), or blocks with the stall time surfaced
// (ClampRate), all booked in the controller's one OverloadLedger.
// ---------------------------------------------------------------------------
QueryEngine::QueryEngine(EngineConfig config) : config_(std::move(config)) {}
QueryEngine::~QueryEngine() = default;

Result<EngineReport> QueryEngine::replay(const std::vector<TraceRecord>& trace,
                                         const ReplayClock* shared_clock) {
  if (trace.empty()) return Err("empty trace");
  if (config_.distributors != 1 || config_.shards != 1)
    return Err("distributors and shards must be 1: the process is the "
               "distributor; set queriers_per_distributor for more querier "
               "threads");
  if (config_.queriers_per_distributor == 0)
    return Err("need at least one querier (queriers_per_distributor)");
  if (shared_clock != nullptr && !shared_clock->started())
    return Err("shared clock not started");
  // A zero interval would re-arm the snapshot timer at `now` forever.
  if (config_.checkpointing() && config_.checkpoint_interval <= 0)
    return Err("checkpoint interval must be positive");

  const CheckpointState* resume = config_.resume;
  const bool checkpointing = config_.checkpointing();
  uint64_t fingerprint = 0;
  uint64_t total_queries = 0;
  if (checkpointing || resume != nullptr) {
    fingerprint = trace_fingerprint(trace);
    for (const auto& rec : trace)
      if (rec.direction == trace::Direction::Query) ++total_queries;
  }
  if (resume != nullptr && resume->trace_hash != fingerprint)
    return Err("checkpoint was taken against a different trace");

  // Per-source skip counts: how many query records the checkpoint already
  // put on the wire (mutator-dropped records never counted, so the skip
  // applies to mutator-surviving records only).
  std::unordered_map<IpAddr, uint64_t, IpAddrHash> skip;
  if (resume != nullptr) {
    for (const auto& [ip, n] : resume->sent) {
      auto addr = IpAddr::parse(ip);
      if (!addr.ok()) return Err("checkpoint: bad source address " + ip);
      skip[*addr] = n;
    }
  }

  // Time synchronization broadcast (§2.6): latch t̄₁ from the first query
  // and t₁ slightly in the future so querier startup cost doesn't make the
  // first queries late. On resume, re-anchor at the first record the
  // checkpoint hasn't sent, so the remaining schedule plays at original
  // pace instead of sprinting through the already-replayed prefix. A
  // shared clock (a worker fleet's barrier start) overrides.
  TimeNs anchor_ts = trace.front().timestamp;
  if (resume != nullptr) {
    auto remaining = skip;
    for (const auto& rec : trace) {
      if (rec.direction != trace::Direction::Query) continue;
      auto it = remaining.find(rec.src.addr);
      if (it != remaining.end() && it->second > 0) {
        --it->second;
        continue;
      }
      anchor_ts = rec.timestamp;
      break;
    }
  }
  ReplayClock own_clock;
  own_clock.start(anchor_ts, mono_now_ns() + kStartupLead);
  const ReplayClock& clock = shared_clock != nullptr ? *shared_clock : own_clock;

  // Restored in-flight queries go to their sources' queriers before any
  // record is dispatched, so a source's sticky slot is decided by the
  // query that was first on the wire. Each querier takes its share at
  // construction and resends it before its loop starts.
  const size_t n_queriers = config_.queriers_per_distributor;
  SourceSplit split(n_queriers);
  std::vector<std::vector<CheckpointPending>> restored(n_queriers);
  if (resume != nullptr) {
    for (const auto& cp : resume->pending)
      restored[split.slot_for(cp.record.source)].push_back(cp);
  }
  std::vector<std::unique_ptr<Querier>> queriers;
  for (size_t i = 0; i < n_queriers; ++i)
    queriers.push_back(std::make_unique<Querier>(
        static_cast<uint32_t>(i), config_, clock, std::move(restored[i])));
  OverloadLedger overload;
  std::atomic<uint64_t> mutator_dropped{0};

  // The controller's own books — overload shedding, ClampRate stalls and
  // the deepest querier queue — as one report that merges like a querier's.
  auto own_report = [&] {
    EngineReport own;
    own.shed_queries = overload.shed.load(std::memory_order_relaxed);
    own.clamp_stall_ns = overload.clamp_stall_ns.load(std::memory_order_relaxed);
    for (const auto& q : queriers)
      own.queue_hwm = std::max<uint64_t>(own.queue_hwm, q->queue_high_water());
    return own;
  };
  // One checkpoint cut from every querier's latest published snapshot.
  // Ticker thread, or this thread (final checkpoint, after the joins).
  auto gather_state = [&] {
    CheckpointState st;
    st.trace_hash = fingerprint;
    st.trace_queries = total_queries;
    if (resume != nullptr) {
      // Cumulative across restores: the resumed base, overwritten by
      // whatever this incarnation's queriers have touched since.
      st.partial = resume->partial;
      st.streams = resume->streams;
      st.sent = resume->sent;
    }
    st.partial.mutator_dropped +=
        mutator_dropped.load(std::memory_order_relaxed);
    for (auto& q : queriers) {
      QuerierSnapshot s = q->snapshot();
      if (!s.valid) continue;
      st.partial.merge_from(std::move(s.partial));
      for (auto& cp : s.pending) st.pending.push_back(std::move(cp));
      for (auto& [name, pos] : s.streams) st.streams[name] = pos;
      for (auto& [ip, n] : s.sent) st.sent[ip] = n;
    }
    st.partial.merge_from(own_report());
    return st;
  };
  auto checkpoint = [&] {
    CheckpointState st = gather_state();
    if (!config_.checkpoint_path.empty()) {
      auto saved = save_checkpoint(config_.checkpoint_path, st);
      if (!saved.ok())
        LDP_WARN("replay", "checkpoint failed: " << saved.error().message);
    }
    if (config_.checkpoint_sink) config_.checkpoint_sink(st);
  };
  Supervisor ticker(config_.checkpoint_interval, checkpoint);
  if (checkpointing) ticker.start();

  // The Postman: dispatch records to their queriers, mutating live when
  // configured, skipping what the checkpoint already replayed. A push onto
  // a closed queue (never expected: queues close only after the last push)
  // is shed with accounting rather than lost.
  for (const auto& rec : trace) {
    if (rec.direction != trace::Direction::Query) continue;
    auto sk = skip.find(rec.src.addr);
    bool skipping = sk != skip.end() && sk->second > 0;
    TraceRecord record = rec;
    if (config_.live_mutator != nullptr) {
      auto verdict = config_.live_mutator->apply(record);
      if (!verdict.ok() || *verdict == mutate::Verdict::Drop) {
        // Pre-cut drops are already inside the checkpoint's counter.
        if (!skipping) mutator_dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }
    if (skipping) {
      --sk->second;
      continue;
    }
    Querier& q = *queriers[split.slot_for(record.src.addr)];
    if (push_with_policy(q.queue(), record, config_.overload,
                         config_.shed_grace, overload) == PushResult::Ok)
      q.wake();
    else
      overload.shed.fetch_add(1, std::memory_order_relaxed);
  }
  for (auto& q : queriers) q->finish();

  EngineReport merged;
  merged.mutator_dropped = mutator_dropped.load(std::memory_order_relaxed);
  merged.replay_start = clock.real_origin();
  for (auto& q : queriers) merged.merge_from(q->take_report());
  // Restored resends go out as their querier starts, ahead of t₁; they do
  // not move a timed replay's origin.
  if (config_.timed) merged.replay_start = clock.real_origin();
  merged.merge_from(own_report());
  // Stop the ticker before the final checkpoint so the two never write the
  // file at once.
  ticker.stop();

  if (resume != nullptr) {
    EngineReport base = resume->partial;
    merged.merge_from(std::move(base));
  }

  // Final quiescent checkpoint: a completed replay's file resumes into a
  // no-op (and the kill-and-resume smoke path reads its counters).
  if (checkpointing) checkpoint();
  return merged;
}

}  // namespace ldp::replay

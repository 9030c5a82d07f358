#include "replay/dist/controller.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>

#include "fault/fault.hpp"
#include "net/socket.hpp"
#include "replay/checkpoint.hpp"
#include "replay/dist/protocol.hpp"
#include "trace/load.hpp"
#include "util/log.hpp"

namespace ldp::replay::dist {

namespace {

enum class SlotState : uint8_t {
  Spawned,   // forked, no HELLO yet
  Helloed,   // connection bound, ASSIGN sent
  Ready,     // worker announced readiness, probes not started
  Probing,   // drift rounds in flight
  Synced,    // offset latched, waiting for the fleet barrier
  Started,   // START delivered, replaying
  Reported,  // REPORT received, waiting for the exit
  Dead,      // exited (normally, or budget-exhausted crash)
};

struct ProbeRounds {
  uint32_t sent = 0;
  uint32_t got = 0;
  TimeNs best_rtt = std::numeric_limits<TimeNs>::max();
  TimeNs best_offset = 0;
};

/// One worker index across all its incarnations.
struct Slot {
  size_t index = 0;
  pid_t pid = -1;
  bool reaped = true;
  int fd = -1;  ///< bound control connection, -1 between incarnations
  SlotState state = SlotState::Spawned;
  TimeNs last_frame = 0;
  TimeNs spawn_deadline = 0;
  uint32_t crashes = 0;
  uint32_t respawns = 0;
  TimeNs offset = 0;
  bool offset_is_initial = false;  ///< measured at the fleet barrier
  ProbeRounds probe;
  std::string last_checkpoint;  ///< latest CHECKPOINT payload, verbatim
  EngineReport report;
  bool have_report = false;
  bool started_by_barrier = false;
  bool fallback = false;  ///< slice must finish in-process
};

struct Conn {
  net::TcpStream stream;  ///< fd owner only — control frames, not DNS framing
  FrameReader reader;
  long slot = -1;  ///< bound worker index, -1 until HELLO
};

struct Controller {
  const DistConfig& cfg;
  std::vector<trace::TraceRecord> trace;
  net::TcpListener listener;
  Endpoint listen_ep;
  std::vector<Slot> slots;
  std::map<int, Conn> conns;
  bool global_start_sent = false;
  TimeNs barrier_start = 0;
  TimeNs trace_origin = 0;
  TimeNs kill_at = 0;
  bool kill_done = false;
  int64_t max_drift = 0;
  Result<void> failure = Ok();  ///< first hard error, ends the loop

  Controller(const DistConfig& c, std::vector<trace::TraceRecord> t,
             net::TcpListener l, Endpoint ep)
      : cfg(c), trace(std::move(t)), listener(std::move(l)), listen_ep(ep) {}

  void spawn(Slot& s) {
    std::vector<std::string> args = {
        cfg.worker_bin,
        "--connect",
        listen_ep.addr.to_string(),
        std::to_string(listen_ep.port),
        "--index",
        std::to_string(s.index),
    };
    if (s.index < cfg.worker_skew.size() && cfg.worker_skew[s.index] != 0) {
      args.push_back("--skew-ns");
      args.push_back(std::to_string(cfg.worker_skew[s.index]));
    }
    args.push_back(cfg.trace_path);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = ::fork();
    if (pid < 0) {
      failure = Err(std::string("fork: ") + std::strerror(errno));
      return;
    }
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      // exec failure is a worker crash like any other; 127 shows up in logs.
      std::fprintf(stderr, "ldp-worker exec failed: %s: %s\n",
                   cfg.worker_bin.c_str(), std::strerror(errno));
      ::_exit(127);
    }
    s.pid = pid;
    s.reaped = false;
    s.fd = -1;
    s.state = SlotState::Spawned;
    s.probe = ProbeRounds{};
    s.have_report = false;
    s.spawn_deadline = mono_now_ns() + cfg.barrier_timeout;
  }

  void drop_conn(int fd) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;
    if (it->second.slot >= 0) {
      Slot& s = slots[static_cast<size_t>(it->second.slot)];
      if (s.fd == fd) s.fd = -1;
      // A connection lost before REPORT is a crash in progress; the reap in
      // tick() does the accounting once the exit status is visible.
    }
    conns.erase(it);
  }

  /// A send failing means the worker died mid-conversation: shed the
  /// connection and let the reap see the corpse.
  void send_or_drop(int fd, FrameType type, const std::string& payload) {
    auto sent = send_frame(fd, type, payload);
    if (!sent.ok()) drop_conn(fd);
  }

  void send_probe(Slot& s) {
    BarrierMsg m{BarrierMsg::Kind::Probe, ++s.probe.sent, mono_now_ns(), 0};
    send_or_drop(s.fd, FrameType::Barrier, encode_barrier(m));
  }

  void begin_probes(Slot& s) {
    s.state = SlotState::Probing;
    s.probe = ProbeRounds{};
    send_probe(s);
  }

  /// Individual start for a respawned worker after the fleet barrier: it
  /// either resumes from its checkpoint (self-anchored; the instant is
  /// ignored) or replays its slice from scratch on its own lead.
  void start_individual(Slot& s) {
    StartMsg m;
    m.trace_origin = trace_origin;
    m.offset = s.offset;
    m.start_at = mono_now_ns() + cfg.start_lead / 2 +
                 (cfg.correct_drift ? s.offset : 0);
    send_or_drop(s.fd, FrameType::Start, encode_start(m));
    s.state = SlotState::Started;
  }

  void broadcast_start() {
    barrier_start = mono_now_ns() + cfg.start_lead;
    for (auto& s : slots) {
      if (s.state != SlotState::Synced) continue;
      StartMsg m;
      m.trace_origin = trace_origin;
      m.offset = s.offset;
      m.start_at = barrier_start + (cfg.correct_drift ? s.offset : 0);
      send_or_drop(s.fd, FrameType::Start, encode_start(m));
      s.state = SlotState::Started;
      s.started_by_barrier = true;
      max_drift = std::max<int64_t>(
          max_drift, s.offset < 0 ? -s.offset : s.offset);
    }
    global_start_sent = true;
    if (cfg.kill_worker >= 0) kill_at = barrier_start + cfg.kill_after;
    std::fprintf(stderr,
                 "workers: %zu processes, barrier start, max drift %lld us\n",
                 cfg.workers, static_cast<long long>(max_drift / 1000));
  }

  void maybe_barrier() {
    if (global_start_sent) return;
    for (const auto& s : slots) {
      if (s.fallback) continue;  // budget exhausted pre-start; fallback later
      if (s.state != SlotState::Synced) return;
    }
    broadcast_start();
  }

  void synced(Slot& s) {
    s.offset = s.probe.best_offset;
    s.state = SlotState::Synced;
    if (!global_start_sent) {
      s.offset_is_initial = true;
      maybe_barrier();
    } else {
      max_drift = std::max<int64_t>(
          max_drift, s.offset < 0 ? -s.offset : s.offset);
      start_individual(s);
    }
  }

  void all_ready_check() {
    if (global_start_sent) return;
    // Probes start per worker the moment it is Ready — rounds overlap
    // across workers; the barrier waits on Synced.
    for (auto& s : slots)
      if (s.state == SlotState::Ready) begin_probes(s);
  }

  void handle_frame(int fd, Conn& conn, Frame&& f) {
    if (conn.slot < 0) {
      if (f.type != FrameType::Hello) {
        drop_conn(fd);
        return;
      }
      auto hello = parse_hello(f.payload);
      if (!hello.ok() || hello->version != kProtocolVersion ||
          hello->worker < 0 ||
          hello->worker >= static_cast<int64_t>(slots.size())) {
        LDP_WARN("dist", "rejecting bad HELLO");
        drop_conn(fd);
        return;
      }
      Slot& s = slots[static_cast<size_t>(hello->worker)];
      if (s.fd != -1 || s.state != SlotState::Spawned) {
        LDP_WARN("dist", "duplicate HELLO for worker " << hello->worker);
        drop_conn(fd);
        return;
      }
      conn.slot = hello->worker;
      s.fd = fd;
      s.last_frame = mono_now_ns();
      AssignMsg assign;
      assign.index = s.index;
      assign.count = slots.size();
      assign.server = cfg.server;
      assign.timed = cfg.timed;
      assign.queriers = cfg.queriers_per_distributor;
      assign.heartbeat_interval = cfg.heartbeat_interval;
      assign.checkpoint_interval = cfg.checkpoint_interval;
      assign.fault_spec = cfg.fault_spec;
      assign.resume = s.last_checkpoint;  // empty on the first incarnation
      send_or_drop(fd, FrameType::Assign, encode_assign(assign));
      s.state = SlotState::Helloed;
      return;
    }

    Slot& s = slots[static_cast<size_t>(conn.slot)];
    s.last_frame = mono_now_ns();
    switch (f.type) {
      case FrameType::Barrier: {
        auto m = parse_barrier(f.payload);
        if (!m.ok()) {
          drop_conn(fd);
          return;
        }
        if (m->kind == BarrierMsg::Kind::Ready) {
          if (s.state == SlotState::Helloed) {
            s.state = SlotState::Ready;
            if (global_start_sent) {
              begin_probes(s);  // respawned incarnation, individual sync
            } else {
              all_ready_check();
            }
          }
          return;
        }
        if (m->kind != BarrierMsg::Kind::Echo ||
            s.state != SlotState::Probing)
          return;
        TimeNs now = mono_now_ns();
        TimeNs rtt = now - m->t_ctrl;
        TimeNs offset = m->t_worker - (m->t_ctrl + now) / 2;
        if (rtt < s.probe.best_rtt) {
          s.probe.best_rtt = rtt;
          s.probe.best_offset = offset;
        }
        ++s.probe.got;
        if (s.probe.got >= cfg.drift_probes) {
          synced(s);
        } else {
          send_probe(s);
        }
        return;
      }
      case FrameType::Heartbeat:
      case FrameType::Progress:
        return;  // last_frame is the supervision signal
      case FrameType::Checkpoint:
        s.last_checkpoint = std::move(f.payload);
        return;
      case FrameType::Report: {
        auto r = parse_report(f.payload);
        if (!r.ok()) {
          LDP_WARN("dist", "worker " << s.index
                                     << " report unparsable: "
                                     << r.error().message);
          drop_conn(fd);
          return;
        }
        s.report = std::move(*r);
        s.have_report = true;
        s.state = SlotState::Reported;
        return;
      }
      default:
        LDP_WARN("dist", "unexpected " << frame_type_name(f.type)
                                       << " from worker " << s.index);
        return;
    }
  }

  void crash(Slot& s) {
    ++s.crashes;
    if (s.fd != -1) drop_conn(s.fd);
    if (s.respawns < cfg.respawn_budget) {
      ++s.respawns;
      std::fprintf(stderr,
                   "worker %zu crashed; respawning (%u/%u)%s\n", s.index,
                   s.respawns, cfg.respawn_budget,
                   s.last_checkpoint.empty() ? " from scratch"
                                             : " from checkpoint");
      spawn(s);
    } else {
      std::fprintf(stderr,
                   "worker %zu crashed; respawn budget exhausted, slice "
                   "reassigned to controller\n",
                   s.index);
      s.state = SlotState::Dead;
      s.fallback = true;
      maybe_barrier();  // the fleet barrier must not wait on a dead slot
    }
  }

  void tick() {
    TimeNs now = mono_now_ns();
    for (auto& s : slots) {
      if (s.reaped) continue;
      int status = 0;
      pid_t r = ::waitpid(s.pid, &status, WNOHANG);
      if (r == s.pid) {
        s.reaped = true;
        // The reap can outrun the poll loop: a worker that wrote REPORT and
        // exited may still have the frame sitting in the socket buffer.
        // Drain the connection before ruling on the exit.
        if (s.state != SlotState::Reported && s.fd >= 0) read_conn(s.fd);
        if (s.state == SlotState::Reported) {
          s.state = SlotState::Dead;  // normal exit after REPORT
        } else {
          crash(s);
        }
        continue;
      }
      // Liveness: any frame beats. Replaying workers get the heartbeat
      // timeout; handshaking incarnations get the barrier deadline.
      if (s.state == SlotState::Started &&
          now - s.last_frame > cfg.heartbeat_timeout) {
        std::fprintf(stderr, "worker %zu heartbeat stale; killing\n", s.index);
        ::kill(s.pid, SIGKILL);
        s.last_frame = now;  // one kill per staleness episode
      } else if (s.state != SlotState::Started &&
                 s.state != SlotState::Reported && now > s.spawn_deadline) {
        std::fprintf(stderr, "worker %zu stuck in handshake; killing\n",
                     s.index);
        ::kill(s.pid, SIGKILL);
        s.spawn_deadline = now + cfg.barrier_timeout;
      }
    }
    if (kill_at != 0 && !kill_done && now >= kill_at) {
      Slot& s = slots[static_cast<size_t>(cfg.kill_worker)];
      if (!s.reaped) {
        std::fprintf(stderr, "injecting kill -9 into worker %zu\n", s.index);
        ::kill(s.pid, SIGKILL);
      }
      kill_done = true;
    }
  }

  bool done() const {
    for (const auto& s : slots) {
      if (s.state == SlotState::Dead || s.state == SlotState::Reported)
        continue;
      return false;
    }
    return true;
  }

  void read_conn(int fd) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;
    uint8_t buf[65536];
    while (true) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        drop_conn(fd);
        return;
      }
      if (n == 0) {
        drop_conn(fd);
        return;
      }
      it->second.reader.feed(buf, static_cast<size_t>(n));
      while (true) {
        auto f = it->second.reader.next();
        if (!f.ok()) {
          LDP_WARN("dist", "control stream desync: " << f.error().message);
          drop_conn(fd);
          return;
        }
        if (!f->has_value()) break;
        handle_frame(fd, it->second, std::move(**f));
        it = conns.find(fd);  // handle_frame may have dropped the conn
        if (it == conns.end()) return;
      }
    }
  }

  Result<DistReport> run() {
    trace_origin = trace.front().timestamp;
    for (size_t i = 0; i < cfg.workers; ++i) {
      slots.emplace_back();
      slots.back().index = i;
    }
    for (auto& s : slots) {
      spawn(s);
      if (!failure.ok()) break;
    }

    while (failure.ok() && !done()) {
      std::vector<pollfd> fds;
      fds.push_back(pollfd{listener.fd(), POLLIN, 0});
      for (const auto& [fd, conn] : conns)
        fds.push_back(pollfd{fd, POLLIN, 0});
      int rc = ::poll(fds.data(), fds.size(), 50);
      if (rc < 0 && errno != EINTR)
        return Err(std::string("poll: ") + std::strerror(errno));
      if (rc > 0) {
        if (fds[0].revents & POLLIN) {
          while (true) {
            auto accepted = listener.accept();
            if (!accepted.ok()) return accepted.error();
            if (!accepted->has_value()) break;
            int cfd = (*accepted)->fd();
            conns.emplace(cfd, Conn{std::move(**accepted), FrameReader{}, -1});
          }
        }
        for (size_t i = 1; i < fds.size(); ++i) {
          if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
            read_conn(fds[i].fd);
        }
      }
      tick();
    }
    // Reap stragglers: every worker either already exited (normal path) or
    // is being abandoned because of a controller-side failure.
    for (auto& s : slots) {
      if (s.reaped) continue;
      if (!failure.ok()) ::kill(s.pid, SIGKILL);
      int status = 0;
      ::waitpid(s.pid, &status, 0);
      s.reaped = true;
    }
    LDP_TRY_VOID(failure);

    // Budget-exhausted slices finish in-process from their last checkpoint —
    // the single-host stand-in for reassigning the sources to another
    // machine. Runs after the fleet so the loopback server sees the same
    // concurrency the workers produced.
    DistReport out;
    out.workers.resize(slots.size());
    EngineReport merged;
    std::vector<std::vector<trace::TraceRecord>> slices;
    for (auto& s : slots) {
      if (!s.fallback) continue;
      if (slices.empty()) slices = partition_by_source(trace, slots.size());
      auto& slice = slices[s.index];
      out.workers[s.index].fallback = true;
      if (slice.empty()) continue;
      EngineConfig ec;
      ec.server = cfg.server;
      ec.timed = cfg.timed;
      ec.queriers_per_distributor = cfg.queriers_per_distributor;
      ec.checkpoint_interval = cfg.checkpoint_interval;
      if (!cfg.fault_spec.empty()) {
        auto spec = fault::parse_fault_spec(cfg.fault_spec);
        if (!spec.ok()) return spec.error();
        ec.fault = *spec;
      }
      CheckpointState resume_state;
      if (!s.last_checkpoint.empty()) {
        resume_state = LDP_TRY(parse_checkpoint(s.last_checkpoint));
        ec.resume = &resume_state;
      }
      std::fprintf(stderr, "replaying worker %zu's slice in-process (%zu queries)\n",
                   s.index, slice.size());
      QueryEngine engine(ec);
      EngineReport r = LDP_TRY(engine.replay(slice));
      merged.merge_from(std::move(r));
    }

    for (auto& s : slots) {
      WorkerStat& w = out.workers[s.index];
      w.crashes = s.crashes;
      w.respawns = s.respawns;
      w.drift = s.offset_is_initial ? s.offset : 0;
      if (s.have_report) {
        if (s.started_by_barrier && s.respawns == 0 && cfg.timed &&
            s.report.replay_start > 0) {
          TimeNs mis = s.report.replay_start - barrier_start;
          w.misalign = mis;
          w.have_misalign = true;
          out.any_misalign = true;
          out.max_abs_misalign =
              std::max<TimeNs>(out.max_abs_misalign, mis < 0 ? -mis : mis);
        }
        merged.merge_from(std::move(s.report));
      } else if (!s.fallback) {
        return Err("worker " + std::to_string(s.index) +
                   " finished without a report");
      }
      merged.worker_crashes += s.crashes;
      merged.workers_respawned += s.respawns;
    }
    merged.max_drift_ns = std::max<int64_t>(merged.max_drift_ns, max_drift);
    out.report = std::move(merged);
    return out;
  }
};

}  // namespace

Result<DistReport> run_distributed(const DistConfig& cfg) {
  if (cfg.workers < 1 || cfg.workers > 64)
    return Err("workers must be between 1 and 64");
  if (cfg.worker_bin.empty()) return Err("worker binary path is empty");
  if (cfg.kill_worker >= static_cast<int64_t>(cfg.workers))
    return Err("kill_worker index out of range");
  // Every worker checkpoints; its engine would refuse a zero interval.
  if (cfg.checkpoint_interval <= 0)
    return Err("checkpoint interval must be positive");
  if (::access(cfg.worker_bin.c_str(), X_OK) != 0)
    return Err("worker binary not executable: " + cfg.worker_bin);

  auto trace = LDP_TRY(trace::load_trace_file(cfg.trace_path));
  if (trace.empty()) return Err("empty trace");

  auto loopback = LDP_TRY(IpAddr::parse("127.0.0.1"));
  auto listener =
      LDP_TRY(net::TcpListener::listen(Endpoint{loopback, 0}, 64));
  Endpoint ep = LDP_TRY(listener.local_endpoint());

  Controller ctl(cfg, std::move(trace), std::move(listener), ep);
  return ctl.run();
}

}  // namespace ldp::replay::dist

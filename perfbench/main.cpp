// Repository benchmark driver (see README.md beside this file).
//
//   ldp_perfbench run --workload W --seed N --seconds S --trace 0|1 --out DIR
//
// prints one JSON object on its last stdout line: correct/attempted/failed,
// the metrics of the requested mode (end-to-end with --trace 0, per-layer
// with --trace 1) and the run's provenance. Each trial forks a server and a
// replayer process from this orchestrator (this binary re-executed with
// --role), pinned to disjoint cores.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "perfbench.hpp"
#include "trace/binary.hpp"

using namespace ldp;
using namespace perfbench;

namespace {

// --- knobs -------------------------------------------------------------------

constexpr int kMainTrials = 3;  // end-to-end metrics are their medians
constexpr int kSetupOnlyTrials = 2;
constexpr double kLadderStartQps = 10000;
constexpr double kLadderMaxQps = 320000;
constexpr double kLadderMinQps = 625;
constexpr double kLadderResolution = 0.05;  // stop bisecting at 5% width
// Ladder steps are longer than the main trials: 10k q/s holds steady for the
// 2-s main trace, and a 3-s step is where it starts to break.
constexpr double kStepLength = 1.5;
constexpr double kSloAnsweredRatio = 0.999;
constexpr double kSloLatencyP99Ns = 10.0 * kMilli;
constexpr int kReadyTimeoutMs = 60000;

// --- spans ---------------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  TimeNs start = 0;
  TimeNs end = 0;
};

/// In-memory span log, written out when the run ends. Disabled (no-op)
/// for untraced runs.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  bool on() const { return on_; }
  uint64_t add(std::string name, TimeNs start, TimeNs end, uint64_t parent) {
    if (!on_) return 0;
    spans_.push_back({spans_.size() + 1, parent, std::move(name), start, end});
    return spans_.size();
  }
  /// Open a span now; close() stamps its end.
  uint64_t open(std::string name, uint64_t parent) {
    return add(std::move(name), mono_now_ns(), 0, parent);
  }
  void close(uint64_t id) {
    if (on_ && id > 0) spans_[id - 1].end = mono_now_ns();
  }
  bool write(const std::string& path, const std::string& run_id) const {
    std::ofstream f(path);
    f << "{\"run_id\": \"" << run_id << "\", \"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << "  {\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    f << "]}\n";
    return static_cast<bool>(f);
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// --- child processes ---------------------------------------------------------

/// One forked-and-exec'd role process with a command pipe to its stdin and
/// a reply pipe from its stdout. Killed and reaped on destruction unless
/// reap() already collected it.
class Child {
 public:
  Child(const std::vector<std::string>& args, const cpu_set_t& cpus) {
    int to[2], from[2];
    if (pipe2(to, O_CLOEXEC) != 0 || pipe2(from, O_CLOEXEC) != 0) return;
    std::fflush(nullptr);
    pid_ = fork();
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      signal(SIGPIPE, SIG_DFL);
      dup2(to[0], STDIN_FILENO);
      dup2(from[1], STDOUT_FILENO);
      sched_setaffinity(0, sizeof(cpus), &cpus);
      std::vector<char*> argv;
      for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      execv("/proc/self/exe", argv.data());
      _exit(127);
    }
    ::close(to[0]);
    ::close(from[1]);
    to_ = to[1];
    from_ = from[0];
  }
  ~Child() {
    if (to_ >= 0) ::close(to_);
    if (from_ >= 0) ::close(from_);
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool ok() const { return pid_ > 0; }

  bool send(const std::string& line) {
    std::string l = line + "\n";
    return ::write(to_, l.data(), l.size()) == static_cast<ssize_t>(l.size());
  }

  /// Next reply line, or nullopt on EOF or timeout.
  std::optional<std::string> read_line(int timeout_ms) {
    TimeNs deadline = mono_now_ns() + static_cast<TimeNs>(timeout_ms) * kMilli;
    for (;;) {
      auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      TimeNs left = deadline - mono_now_ns();
      if (left <= 0) return std::nullopt;
      pollfd p{from_, POLLIN, 0};
      int r = poll(&p, 1, static_cast<int>(left / kMilli) + 1);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return std::nullopt;
      char tmp[4096];
      ssize_t n = ::read(from_, tmp, sizeof(tmp));
      if (n <= 0) return std::nullopt;
      buf_.append(tmp, static_cast<size_t>(n));
    }
  }

  /// Wait for exit; returns peak RSS in KiB (ru_maxrss), or -1 on failure.
  long reap() {
    rusage ru{};
    int status = 0;
    pid_t r = wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    if (r < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
    return ru.ru_maxrss;
  }

 private:
  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
  std::string buf_;
};

struct Pinning {
  cpu_set_t server{};
  cpu_set_t replayer{};
  std::string map;  // "server:0 replayer:1,2,3"
};

std::optional<Pinning> make_pinning() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return std::nullopt;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  if (cpus.size() < 2) return std::nullopt;
  Pinning p;
  CPU_ZERO(&p.server);
  CPU_ZERO(&p.replayer);
  CPU_SET(cpus[0], &p.server);
  p.map = "server:" + std::to_string(cpus[0]) + " replayer:";
  for (size_t i = 1; i < cpus.size(); ++i) {
    CPU_SET(cpus[i], &p.replayer);
    p.map += (i > 1 ? "," : "") + std::to_string(cpus[i]);
  }
  return p;
}

// --- trials ------------------------------------------------------------------

/// One server + replayer pair over one trace file. A setup-only trial
/// stops once both are ready; a measured trial also replays the trace.
struct Trial {
  std::string error;  // empty = the trial ran and its books closed
  double setup_s = 0;
  Kv replay;          // replayer "result" line
  Kv server_before;   // server "snap" before go
  Kv server_after;    // server "snap" after the replay
  Kv server_final;    // server "final" line
  double replayer_rss_mb = 0;
  double server_rss_mb = 0;
  Kv server_ready;     // server "ready" line
  TimeNs start = 0;

  double scheduled() const { return kv_get(replay, "scheduled"); }
  double answered_ratio() const {
    return scheduled() > 0 ? kv_get(replay, "answered") / scheduled() : 0;
  }
  double server_delta(const char* key) const {
    return kv_get(server_after, key) - kv_get(server_before, key);
  }
};

Trial run_trial(const Pinning& pin, const std::string& trace_path, bool measure,
                bool spans, double replay_timeout_s) {
  Trial t;
  std::vector<std::string> span_flag;
  if (spans) span_flag.push_back("--spans");
  auto args = [&](std::vector<std::string> a) {
    a.insert(a.end(), span_flag.begin(), span_flag.end());
    return a;
  };
  t.start = mono_now_ns();
  Child server(args({"ldp_perfbench", "--role", "server"}), pin.server);
  Child replayer(args({"ldp_perfbench", "--role", "replayer", "--trace-file", trace_path}),
                 pin.replayer);
  if (!server.ok() || !replayer.ok()) return t.error = "fork failed", t;

  std::string verb;
  auto ready = server.read_line(kReadyTimeoutMs);
  Kv sready = ready ? parse_kv(*ready, &verb) : Kv{};
  if (!ready || verb != "ready") return t.error = "server did not start", t;
  t.server_ready = sready;
  replayer.send(format_kv("server", {{"port", kv_get(sready, "port")}}));
  auto rready = replayer.read_line(kReadyTimeoutMs);
  if (!rready || rready->rfind("ready", 0) != 0)
    return t.error = "replayer did not load its trace", t;
  t.setup_s = ns_to_sec(mono_now_ns() - t.start);

  if (!measure) {
    replayer.send("quit");
  } else {
    server.send("snap");
    auto s0 = server.read_line(kReadyTimeoutMs);
    replayer.send("go");
    auto result = replayer.read_line(static_cast<int>(replay_timeout_s * 1000));
    server.send("snap");
    auto s1 = server.read_line(kReadyTimeoutMs);
    if (!s0 || !s1) return t.error = "server stopped answering", t;
    if (!result) return t.error = "replay did not finish", t;
    t.server_before = parse_kv(*s0);
    t.server_after = parse_kv(*s1);
    t.replay = parse_kv(*result);
  }
  server.send("stop");
  auto fin = server.read_line(kReadyTimeoutMs);
  if (!fin) return t.error = "server did not stop", t;
  t.server_final = parse_kv(*fin);
  long rrss = replayer.reap();
  long srss = server.reap();
  if (rrss < 0 || srss < 0) return t.error = "a child exited abnormally", t;
  t.replayer_rss_mb = static_cast<double>(rrss) / 1024.0;
  t.server_rss_mb = static_cast<double>(srss) / 1024.0;

  // Correctness gate: both books close, and the server answered at least
  // as many queries as the client received.
  if (kv_get(t.server_final, "books_ok") <= 0)
    return t.error = "server connection books do not close", t;
  if (measure) {
    if (kv_get(t.replay, "books_ok") <= 0)
      return t.error = "replayer books do not close (answered + expired != sent)", t;
    if (t.server_delta("responses") < kv_get(t.replay, "answered"))
      return t.error = "client received more answers than the server sent", t;
  }
  return t;
}

/// Host-wide CPU ticks from /proc/stat: {stolen by the hypervisor, total}.
std::pair<double, double> steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v = 0, total = 0, steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

bool save_trace(const std::vector<TraceRecord>& trace, const std::string& path) {
  trace::BinaryWriter w;
  for (const auto& rec : trace) w.add(rec);
  return w.save(path).ok();
}

std::vector<uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(f), {});
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- the run -------------------------------------------------------------------

struct Options {
  Workload workload = Workload::RootMix;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string out_dir = ".bench_out";
};

struct Outcome {
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Kv metrics;
  Kv info;
};

/// One ladder step: did it meet the SLO, and the answered rate it measured.
struct Step {
  bool pass = false;
  double answered_qps = 0;
};

Step slo_verdict(double answered_ratio, double latency_p99_ns, double answered_qps) {
  return {answered_ratio >= kSloAnsweredRatio && latency_p99_ns <= kSloLatencyP99Ns,
          answered_qps};
}

/// Capacity knee: the answered rate of the highest offered rate whose
/// 4-source fixed-gap replay of the workload's queries keeps answered ratio
/// >= 0.999 and scheduled→answer p99 <= 10 ms. Every step replays
/// kStepLength × the main trace's length: the querier turns all queued
/// records into timers before it fires any, so the knee of a timed replay
/// depends on trace length as well as rate. Steps start at 10k q/s, double
/// until a step fails, then bisect to kLadderResolution.
double find_knee(const Options& o, const Pinning& pin, const std::vector<TraceRecord>& pool,
                 Spans& spans, uint64_t parent, Outcome& out) {
  TimeNs probe_len = sec_to_ns(kStepLength * o.seconds);
  int probes = 0;
  double knee = 0;
  auto passes = [&](double rate) -> bool {
    Step step;
    // A failed step at or below the start rate is run once more: one
    // scheduling hiccup on a shared host must not send the search down the
    // ladder. (Above it, a spurious failure costs at most one bisection.)
    int attempts = rate <= kLadderStartQps ? 2 : 1;
    for (int attempt = 0; attempt < attempts && !step.pass && out.error.empty(); ++attempt) {
      std::string path = o.out_dir + "/probe-" + std::to_string(getpid()) + "-" +
                         std::to_string(++probes) + ".ldpb";
      if (!save_trace(make_probe_trace(pool, rate, probe_len, o.seed), path)) {
        out.error = "cannot write " + path;
        return false;
      }
      uint64_t span =
          spans.open("ladder.probe." + std::to_string(static_cast<int>(rate)), parent);
      Trial t = run_trial(pin, path, true, false, ns_to_sec(probe_len) + 30);
      spans.close(span);
      std::remove(path.c_str());
      if (!t.error.empty()) {
        out.error = "ladder probe at " + std::to_string(static_cast<int>(rate)) +
                    " q/s: " + t.error;
        return false;
      }
      step = slo_verdict(t.answered_ratio(), kv_get(t.replay, "lat_p99_ns"),
                         kv_get(t.replay, "answered_qps"));
      std::fprintf(stderr, "  ladder %8.0f q/s: answered %.5f  p99 %9.1f us  %s\n", rate,
                   t.answered_ratio(), kv_get(t.replay, "lat_p99_ns") / 1000,
                   step.pass ? "pass" : "fail");
    }
    if (step.pass) knee = std::max(knee, step.answered_qps);
    return step.pass;
  };

  double lo = 0, hi = 0;
  if (passes(kLadderStartQps)) {
    lo = kLadderStartQps;
    for (double r = lo * 2; r <= kLadderMaxQps && out.error.empty(); r *= 2) {
      if (!passes(r)) {
        hi = r;
        break;
      }
      lo = r;
    }
  } else {
    hi = kLadderStartQps;
    for (double r = hi / 2; r >= kLadderMinQps && out.error.empty(); r /= 2) {
      if (passes(r)) {
        lo = r;
        break;
      }
      hi = r;
    }
  }
  while (out.error.empty() && lo > 0 && hi > 0 && (hi - lo) / lo > kLadderResolution) {
    double mid = (lo + hi) / 2;
    (passes(mid) ? lo : hi) = mid;
  }
  out.info["knee_probes"] = probes;
  return knee > 0 ? knee : kLadderMinQps / 2;  // below the ladder's floor
}

Outcome run(const Options& o) {
  Outcome out;
  auto pin = make_pinning();
  if (!pin) return out.error = "need at least 2 usable cores (server and replayer are pinned apart)", out;
  // The orchestrator (and the ledger pass) stay off the server's core.
  sched_setaffinity(0, sizeof(pin->replayer), &pin->replayer);
  // The root trace keeps a socket or connection per source (~1000 fds): lift
  // the soft fd limit to the hard one for the children.
  rlimit fds{};
  if (getrlimit(RLIMIT_NOFILE, &fds) == 0 && fds.rlim_cur < fds.rlim_max) {
    fds.rlim_cur = fds.rlim_max;
    setrlimit(RLIMIT_NOFILE, &fds);
  }
  mkdir(o.out_dir.c_str(), 0755);

  std::string name = workload_name(o.workload);
  std::string run_id = name + "-s" + std::to_string(o.seed) + "-t" +
                       std::to_string(o.traced ? 1 : 0) + "-" + std::to_string(getpid());
  std::string trace_path = o.out_dir + "/" + run_id + ".ldpb";

  // Inputs (not part of setup_s).
  auto trace = make_workload_trace(o.workload, o.seed, o.seconds);
  if (trace.empty() || !save_trace(trace, trace_path))
    return out.error = "cannot generate the workload trace", out;
  std::string bad_output = check_server_outputs(trace);
  if (!bad_output.empty()) return out.error = "server output check: " + bad_output, out;

  Spans spans(o.traced);
  uint64_t root = spans.open("run." + name, 0);
  auto [steal0, total0] = steal_ticks();
  double replay_timeout = o.seconds + 60;

  auto main_trial = [&](bool traced) {
    uint64_t span = spans.open(traced ? "trial.main.traced" : "trial.main", root);
    Trial t = run_trial(*pin, trace_path, true, traced, replay_timeout);
    if (traced && t.error.empty()) {
      spans.add("server.start", static_cast<TimeNs>(kv_get(t.server_ready, "span_start_ns")),
                static_cast<TimeNs>(kv_get(t.server_ready, "span_end_ns")), span);
      const Kv& r = t.replay;
      spans.add("trace.load", static_cast<TimeNs>(kv_get(r, "span_load_start_ns")),
                static_cast<TimeNs>(kv_get(r, "span_load_end_ns")), span);
      spans.add("engine.build", static_cast<TimeNs>(kv_get(r, "span_load_end_ns")),
                static_cast<TimeNs>(kv_get(r, "span_build_end_ns")), span);
      spans.add("replay", static_cast<TimeNs>(kv_get(r, "span_replay_start_ns")),
                static_cast<TimeNs>(kv_get(r, "span_replay_end_ns")), span);
    }
    spans.close(span);
    if (!t.error.empty()) out.error = "main trial: " + t.error;
    out.attempted += static_cast<uint64_t>(t.scheduled());
    out.failed += static_cast<uint64_t>(t.scheduled() - kv_get(t.replay, "answered"));
    return t;
  };
  auto cpu_us_per_query = [](const Trial& t) {
    return kv_get(t.replay, "cpu_ns") / 1000.0 / t.scheduled();
  };

  if (!o.traced) {
    std::vector<double> setups;
    for (int i = 0; i < kSetupOnlyTrials && out.error.empty(); ++i) {
      Trial t = run_trial(*pin, trace_path, false, false, replay_timeout);
      if (!t.error.empty()) out.error = "setup trial: " + t.error;
      setups.push_back(t.setup_s);
    }
    if (!out.error.empty()) return out;
    std::vector<Trial> mains;
    for (int i = 0; i < kMainTrials && out.error.empty(); ++i) mains.push_back(main_trial(false));
    if (!out.error.empty()) return out;

    // Each metric is the median over the main trials (tails of a timed
    // replay vary from trial to trial; the median of several is steady).
    auto med = [&](auto metric) {
      std::vector<double> v;
      for (const Trial& m : mains) v.push_back(metric(m));
      return median(v);
    };
    auto replay_us = [&](const char* key) {
      return med([key](const Trial& m) { return kv_get(m.replay, key) / 1000; });
    };
    Kv& e = out.metrics;
    e["answered_ratio"] = med([](const Trial& m) { return m.answered_ratio(); });
    e["timing_error_p50_us"] = replay_us("te_p50_ns");
    e["latency_p50_us"] = replay_us("lat_p50_ns");
    e["latency_p90_us"] = replay_us("lat_p90_ns");
    e["replayer_cpu_us_per_query"] = med(cpu_us_per_query);
    e["server_cpu_us_per_query"] = med([](const Trial& m) {
      return m.server_delta("cpu_ns") / 1000.0 / std::max(1.0, m.server_delta("responses"));
    });
    e["replayer_peak_rss_mb"] = med([](const Trial& m) { return m.replayer_rss_mb; });
    e["server_peak_rss_mb"] = med([](const Trial& m) { return m.server_rss_mb; });
    for (const Trial& m : mains) setups.push_back(m.setup_s);
    e["setup_s"] = median(setups);
    out.info["latency_samples"] = kv_get(mains.front().replay, "lat_n");

    uint64_t ladder = spans.open("ladder", root);
    e["knee_qps"] = find_knee(o, *pin, trace, spans, ladder, out);
    spans.close(ladder);
  } else {
    Trial plain = main_trial(false);
    if (!out.error.empty()) return out;
    Trial traced = main_trial(true);
    if (!out.error.empty()) return out;

    const Kv& r = traced.replay;
    double q = traced.scheduled();
    Kv& p = out.metrics;
    p["replay.retries_per_query"] = kv_get(r, "retries") / q;
    p["replay.unmatched_per_query"] = kv_get(r, "unmatched") / q;
    p["replay.deferred_sends_per_query"] = kv_get(r, "deferred") / q;
    p["replay.queue_hwm"] = kv_get(r, "queue_hwm");
    p["replay.max_in_flight"] = kv_get(r, "max_in_flight");
    p["replay.sources"] = kv_get(r, "sources");
    p["replay.tcp_connections_per_query"] = kv_get(r, "connections") / q;
    // Lateness and latency tails that swing with the host's scheduling
    // hiccups from run to run: reported here, where no bound applies, so
    // tail regressions stay visible.
    p["replay.timing_error_p90_us"] = kv_get(r, "te_p90_ns") / 1000;
    p["replay.timing_error_p99_us"] = kv_get(r, "te_p99_ns") / 1000;
    p["replay.latency_p99_us"] = kv_get(r, "lat_p99_ns") / 1000;
    p["net.client_syscalls_per_query"] = kv_get(r, "io_syscalls") / q;
    double mmsg = kv_get(r, "io_sendmmsg");
    p["net.client_datagrams_per_sendmmsg"] = mmsg > 0 ? kv_get(r, "io_dgrams_sent") / mmsg : 0;
    double served = std::max(1.0, traced.server_delta("responses"));
    p["net.server_syscalls_per_query"] = traced.server_delta("io_syscalls") / served;
    double probes = traced.server_delta("cache_hits") + traced.server_delta("cache_misses") +
                    traced.server_delta("cache_bypasses");
    p["server.cache_hit_ratio"] = probes > 0 ? traced.server_delta("cache_hits") / probes : 0;
    p["server.peak_established"] = kv_get(traced.server_final, "peak_established");

    std::vector<LedgerSpan> ledger_spans;
    std::string ledger_error;
    uint64_t ledger = spans.open("ledger", root);
    Kv lk = run_ledger(trace, read_file(trace_path), ledger_spans, ledger_error);
    spans.close(ledger);
    for (const auto& s : ledger_spans) spans.add(s.name, s.start, s.end, ledger);
    if (!ledger_error.empty()) return out.error = ledger_error, out;
    p.insert(lk.begin(), lk.end());

    // The ledger's share of the replayer's measured CPU per query: the
    // layers on every query's path (two queue hops, one timer, one pending
    // insert+match, and for UDP queries one batched send and receive).
    double udp_share = kv_get(r, "udp_scheduled") / q;
    double path_ns = 2 * lk["queue.hop_ns"] + lk["event_loop.timer_ns"] +
                     lk["pending.insert_match_ns"] +
                     udp_share * (lk["socket.send_batch_ns_per_datagram"] +
                                  lk["socket.recv_batch_ns_per_datagram"]);
    double plain_cpu_ns = cpu_us_per_query(plain) * 1000;
    p["ledger.unattributed_share"] = 1 - path_ns / plain_cpu_ns;
    p["tracing.overhead_share"] = cpu_us_per_query(traced) / cpu_us_per_query(plain) - 1;
  }
  spans.close(root);
  // CPU time the hypervisor gave to other guests during the run: a run
  // measured under heavy steal is noisy, whatever the code did.
  auto [steal1, total1] = steal_ticks();
  out.info["host_steal_share"] = total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0;
  if (spans.on()) spans.write(o.out_dir + "/" + run_id + "-spans.json", run_id);
  std::remove(trace_path.c_str());
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: ldp_perfbench run --workload root_mix|identical_ladder|root_all_tcp"
               " --seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  auto flag = [&](const std::string& name) -> std::optional<std::string> {
    for (size_t i = 0; i + 1 < args.size(); ++i)
      if (args[i] == name) return args[i + 1];
    return std::nullopt;
  };
  bool span_flag = std::find(args.begin(), args.end(), "--spans") != args.end();
  if (auto role = flag("--role")) {
    if (*role == "server") return server_main(span_flag);
    if (*role == "replayer") return replayer_main(flag("--trace-file").value_or(""), span_flag);
    return usage();
  }
  if (args.empty() || args[0] != "run") return usage();

  Options o;
  auto w = parse_workload(flag("--workload").value_or(""));
  if (!w) return usage();
  o.workload = *w;
  o.seed = std::strtoull(flag("--seed").value_or("1").c_str(), nullptr, 10);
  o.seconds = std::strtod(flag("--seconds").value_or("10").c_str(), nullptr);
  o.traced = flag("--trace").value_or("0") == "1";
  o.out_dir = flag("--out").value_or(o.out_dir);
  if (!(o.seconds > 0)) return usage();

  std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  build_type += "+assertions";
#endif
  if (build_type != "Release") {
    std::fprintf(stderr, "refusing to measure a %s build\n", build_type.c_str());
    return 2;
  }
  if (!alloc_self_check()) {
    std::fprintf(stderr, "counting allocator self-check failed\n");
    return 2;
  }
  // A child that dies mid-command must surface as a failed write, not kill
  // the orchestrator.
  signal(SIGPIPE, SIG_IGN);
  auto pin = make_pinning();
  Outcome out = run(o);
  bool correct = out.error.empty();
  if (!correct) std::fprintf(stderr, "perfbench: %s\n", out.error.c_str());

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(correct ? out.failed : out.attempted) +
                     ", \"metrics\": {";
  bool first = true;
  if (correct) {
    for (const auto& [k, v] : out.metrics) {
      line += (first ? "\"" : ", \"") + k + "\": " + json_number(v);
      first = false;
    }
  }
  line += "}, \"provenance\": {\"workload\": \"" + std::string(workload_name(o.workload)) +
          "\", \"seed\": " + std::to_string(o.seed) +
          ", \"seconds\": " + json_number(o.seconds) +
          ", \"trace\": " + (o.traced ? "1" : "0") +
          ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
          ", \"pinning\": \"" + json_escape(pin ? pin->map : "none") +
          "\", \"build_type\": \"" + build_type + "\", \"compiler\": \"" +
          json_escape(PERFBENCH_COMPILER) + "\"";
  for (const auto& [k, v] : out.info) line += ", \"" + k + "\": " + json_number(v);
  if (!correct) line += ", \"error\": \"" + json_escape(out.error) + "\"";
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

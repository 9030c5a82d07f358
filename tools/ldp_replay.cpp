// ldp-replay: the query engine as a command-line tool. In single-process
// mode this process is the paper's distributor and feeds --queriers N
// querier threads; --workers N forks N ldp-worker processes instead, each
// a distributor with its own querier threads.
//
//   ldp-replay [options] <trace.pcap|trace.txt|trace.ldpb> <server-ip> <port>
//
// Numeric values are strict: integers are plain digits in range (<port>
// 1-65535), decimals (S, F, MS) are positive and at most 1000000; anything
// else exits 2 with a "bad ..." line. An unknown option exits 2 naming it.
//
//   --fast                 ignore trace timing, replay as fast as possible
//   --queriers N           querier threads, the trace split over them by
//                          source (default 2, at most 1024; per worker with
//                          --workers)
//   --workers N            distributed mode: fork N ldp-worker processes (1-64),
//                          barrier-synchronize their start, and kill and
//                          respawn crashed or wedged workers from their
//                          checkpoints (the process is the failure domain)
//   --worker-bin PATH      ldp-worker executable (default: next to ldp-replay)
//   --respawn N            respawns per worker before the controller takes
//                          the slice over in-process (default 2, at most 100)
//   --kill-worker I        test knob: SIGKILL worker I (0-63) once mid-replay
//   --kill-after S         seconds past the barrier start for --kill-worker
//   --transport udp|tcp|tls  override every query's transport (§5.2 what-if)
//   --dnssec               set the DO bit on every query (§5.1 what-if)
//   --prefix LABEL         prepend LABEL to every qname (replay matching)
//   --scale F              multiply inter-arrival gaps by F (0.5 = 2x rate)
//   --fault SPEC           impair the query path, e.g.
//                          loss:0.05,reorder:0.01,seed:42 (see ldp::fault)
//   --checkpoint FILE      periodically snapshot replay state to FILE
//   --checkpoint-interval S  seconds between snapshots (default 1)
//   --resume               continue from the --checkpoint file instead of
//                          starting over (counters carry across the kill)
//   --overload block|drop-oldest|clamp  full-queue policy (default block)
//   --shed-grace MS        how long a push waits before shedding (default 5)
//
// Prints every EngineReport counter as "<name>: <value>" (names from the
// counter table, e.g. lifecycle.timeouts), then the derived lines: answered
// share, duration/rate, latency and timing-error quantiles.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "mutate/mutator.hpp"
#include "replay/checkpoint.hpp"
#include "replay/dist/controller.hpp"
#include "replay/engine.hpp"
#include "trace/load.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

using namespace ldp;

namespace {

/// Default --worker-bin: the ldp-worker sitting next to this executable.
std::string sibling_worker_bin() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "ldp-worker";
  std::string self(buf, static_cast<size_t>(n));
  auto slash = self.rfind('/');
  if (slash == std::string::npos) return "ldp-worker";
  return self.substr(0, slash + 1) + "ldp-worker";
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--fast] [--queriers N]\n"
               "          [--workers N [--worker-bin PATH] [--respawn N]\n"
               "           [--kill-worker I] [--kill-after S]]\n"
               "          [--transport udp|tcp|tls] [--dnssec] [--prefix LABEL]\n"
               "          [--scale F] [--fault SPEC]\n"
               "          [--checkpoint FILE [--checkpoint-interval S] [--resume]]\n"
               "          [--overload block|drop-oldest|clamp] [--shed-grace MS]\n"
               "          <trace.{pcap,txt,ldpb}> <server-ip> <port>\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  replay::EngineConfig cfg;
  mutate::MutatorPipeline mutator;
  bool has_mutations = false;
  bool resume = false;
  size_t workers = 0;  // 0 = single-process mode
  replay::dist::DistConfig dist;
  std::string fault_spec_raw;  // forwarded verbatim to dist workers

  int arg = 1;
  for (; arg < argc && std::strncmp(argv[arg], "--", 2) == 0; ++arg) {
    std::string opt = argv[arg];
    auto need_value = [&]() -> const char* {
      if (arg + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", opt.c_str());
        std::exit(2);
      }
      return argv[++arg];
    };
    // Strict integer value for `opt` in [lo, hi]; a bad one exits 2.
    auto need_int = [&](uint64_t lo, uint64_t hi) {
      auto v = parse_u64_in(need_value(), lo, hi);
      if (!v.ok()) {
        std::fprintf(stderr, "bad %s: %s\n", opt.c_str(), v.error().message.c_str());
        std::exit(2);
      }
      return *v;
    };
    // Strict decimal value for `opt` in (0, 1e6]; a bad one exits 2.
    auto need_positive = [&]() {
      const char* text = need_value();
      auto v = parse_number(text);
      if (!v.ok()) {
        std::fprintf(stderr, "bad %s: %s\n", opt.c_str(), v.error().message.c_str());
        std::exit(2);
      }
      if (*v <= 0 || *v > 1e6) {
        std::fprintf(stderr, "bad %s: must be positive and at most 1000000, got %s\n",
                     opt.c_str(), text);
        std::exit(2);
      }
      return *v;
    };
    if (opt == "--fast") {
      cfg.timed = false;
    } else if (opt == "--queriers") {
      cfg.queriers_per_distributor = need_int(1, 1024);
    } else if (opt == "--workers") {
      workers = need_int(1, 64);
    } else if (opt == "--worker-bin") {
      dist.worker_bin = need_value();
    } else if (opt == "--respawn") {
      dist.respawn_budget = static_cast<uint32_t>(need_int(0, 100));
    } else if (opt == "--kill-worker") {
      dist.kill_worker = static_cast<int64_t>(need_int(0, 63));
    } else if (opt == "--kill-after") {
      dist.kill_after = static_cast<TimeNs>(need_positive() * kSecond);
    } else if (opt == "--transport") {
      auto t = transport_from_string(need_value());
      if (!t.ok()) {
        std::fprintf(stderr, "%s\n", t.error().message.c_str());
        return 2;
      }
      mutator.force_transport(*t);
      has_mutations = true;
    } else if (opt == "--dnssec") {
      mutator.enable_dnssec(4096);
      has_mutations = true;
    } else if (opt == "--prefix") {
      mutator.prefix_qnames(need_value());
      has_mutations = true;
    } else if (opt == "--scale") {
      mutator.scale_time(need_positive());
      has_mutations = true;
    } else if (opt == "--fault") {
      fault_spec_raw = need_value();
      auto spec = fault::parse_fault_spec(fault_spec_raw);
      if (!spec.ok()) {
        std::fprintf(stderr, "bad --fault spec: %s\n", spec.error().message.c_str());
        return 2;
      }
      cfg.fault = *spec;
    } else if (opt == "--checkpoint") {
      cfg.checkpoint_path = need_value();
    } else if (opt == "--checkpoint-interval") {
      cfg.checkpoint_interval = static_cast<TimeNs>(need_positive() * kSecond);
    } else if (opt == "--resume") {
      resume = true;
    } else if (opt == "--overload") {
      std::string policy = need_value();
      if (policy == "block") {
        cfg.overload = replay::OverloadPolicy::Block;
      } else if (policy == "drop-oldest") {
        cfg.overload = replay::OverloadPolicy::DropOldest;
      } else if (policy == "clamp") {
        cfg.overload = replay::OverloadPolicy::ClampRate;
      } else {
        std::fprintf(stderr, "unknown --overload policy: %s\n", policy.c_str());
        return 2;
      }
    } else if (opt == "--shed-grace") {
      cfg.shed_grace = static_cast<TimeNs>(need_positive() * kMilli);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", opt.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (argc - arg != 3) {
    usage(argv[0]);
    return 2;
  }

  auto server_ip = IpAddr::parse(argv[arg + 1]);
  if (!server_ip.ok()) {
    std::fprintf(stderr, "%s\n", server_ip.error().message.c_str());
    return 2;
  }
  auto port = parse_u64_in(argv[arg + 2], 1, 65535);
  if (!port.ok()) {
    std::fprintf(stderr, "bad port: %s\n", port.error().message.c_str());
    return 2;
  }
  cfg.server = Endpoint{*server_ip, static_cast<uint16_t>(*port)};
  auto records = trace::load_trace_file(argv[arg]);
  if (!records.ok()) {
    std::fprintf(stderr, "trace load failed: %s\n", records.error().message.c_str());
    return 1;
  }

  if (workers > 0 &&
      (has_mutations || !cfg.checkpoint_path.empty() || resume)) {
    // Workers slice the trace themselves and own their checkpoints; live
    // mutation and file checkpoints belong to single-process mode.
    std::fprintf(stderr,
                 "--workers is incompatible with mutator flags, "
                 "--checkpoint and --resume\n");
    return 2;
  }
  if (workers == 0 &&
      (dist.kill_worker >= 0 || !dist.worker_bin.empty())) {
    std::fprintf(stderr, "--worker-bin/--kill-worker need --workers N\n");
    return 2;
  }

  if (has_mutations) {
    size_t malformed = 0;
    *records = mutator.apply_all(std::move(*records), &malformed);
    if (malformed > 0)
      std::fprintf(stderr, "note: dropped %zu undecodable records\n", malformed);
  }
  replay::CheckpointState resume_state;
  if (resume) {
    if (cfg.checkpoint_path.empty()) {
      std::fprintf(stderr, "--resume needs --checkpoint FILE\n");
      return 2;
    }
    auto loaded = replay::load_checkpoint(cfg.checkpoint_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "resume failed: %s\n", loaded.error().message.c_str());
      return 1;
    }
    resume_state = std::move(*loaded);
    cfg.resume = &resume_state;
    std::fprintf(stderr,
                 "resuming from %s: %llu of %llu queries already sent, "
                 "%zu in flight\n",
                 cfg.checkpoint_path.c_str(),
                 static_cast<unsigned long long>(resume_state.partial.queries_sent),
                 static_cast<unsigned long long>(resume_state.trace_queries),
                 resume_state.pending.size());
  }
  if (workers > 0)
    std::fprintf(stderr, "workers: %zu replay processes\n", workers);
  std::fprintf(stderr, "replaying %zu queries to %s (%s mode)...\n", records->size(),
               cfg.server.to_string().c_str(), cfg.timed ? "timed" : "fast");

  replay::EngineReport rep;
  TimeNs max_abs_misalign = 0;
  bool any_misalign = false;
  if (workers > 0) {
    dist.workers = workers;
    if (dist.worker_bin.empty()) dist.worker_bin = sibling_worker_bin();
    dist.trace_path = argv[arg];
    dist.server = cfg.server;
    dist.timed = cfg.timed;
    dist.queriers_per_distributor = cfg.queriers_per_distributor;
    dist.fault_spec = fault_spec_raw;
    dist.checkpoint_interval = cfg.checkpoint_interval;
    auto dr = replay::dist::run_distributed(dist);
    if (!dr.ok()) {
      std::fprintf(stderr, "distributed replay failed: %s\n",
                   dr.error().message.c_str());
      return 1;
    }
    rep = std::move(dr->report);
    max_abs_misalign = dr->max_abs_misalign;
    any_misalign = dr->any_misalign;
  } else {
    replay::QueryEngine engine(cfg);
    auto report = engine.replay(*records);
    if (!report.ok()) {
      std::fprintf(stderr, "replay failed: %s\n", report.error().message.c_str());
      return 1;
    }
    rep = std::move(*report);
  }

  metrics::for_each_counter(
      [](metrics::CounterName name, metrics::MergeRule, const auto& value) {
        std::printf("%-32s %s\n", (name.str() + ":").c_str(),
                    std::to_string(value).c_str());
      },
      rep);
  std::printf("%-32s %.2f%%\n", "answered:",
              rep.queries_sent > 0
                  ? 100.0 * static_cast<double>(rep.responses_received) /
                        static_cast<double>(rep.queries_sent)
                  : 0.0);
  if (any_misalign)
    std::printf("%-32s %.3f ms max\n", "start misalign:",
                static_cast<double>(max_abs_misalign) / 1e6);
  std::printf("%-32s %.3f s (%.0f q/s)\n", "duration:", rep.duration_s(),
              rep.rate_qps());
  if (!rep.latency_hist.empty())
    std::printf("%-32s %s\n", "latency histogram:",
                rep.latency_hist.summary_ms().c_str());

  Sampler latency_ms, error_ms;
  TimeNs t0 = records->front().timestamp;
  for (const auto& sr : rep.sends) {
    if (sr.latency >= 0) latency_ms.add(ns_to_ms(sr.latency));
    error_ms.add(ns_to_ms((sr.send_time - rep.replay_start) -
                          (sr.trace_time - t0)));
  }
  if (!latency_ms.empty()) {
    auto l = latency_ms.summary();
    std::printf("%-32s median %.2f  q1 %.2f  q3 %.2f  p95 %.2f\n",
                "latency ms:", l.median, l.q1, l.q3, l.p95);
  }
  if (cfg.timed) {
    auto e = error_ms.summary();
    std::printf("%-32s median %.2f  q1 %.2f  q3 %.2f  min %.2f  max %.2f\n",
                "timing error ms:", e.median, e.q1, e.q3, e.min, e.max);
  }
  return 0;
}

// ldp-worker: one querier worker process of a distributed replay. Spawned
// by `ldp-replay --workers N` (which passes the control-channel endpoint and
// the worker's index); running it by hand is only useful for debugging the
// control protocol.
//
//   ldp-worker --connect IP PORT --index N [--skew-ns NS] <trace>
//
//   --connect IP PORT   controller's control-channel listener
//   --index N           which slice of the source partition to replay
//   --skew-ns NS        simulate a clock skewed by NS ns (drift tests)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "replay/dist/worker.hpp"
#include "util/strings.hpp"

using namespace ldp;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect IP PORT --index N [--skew-ns NS] "
               "<trace.{pcap,txt,ldpb}>\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  replay::dist::WorkerOptions opts;
  std::string ip;
  uint16_t port = 0;
  bool have_connect = false;
  bool have_index = false;

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
    if (opt == "--connect") {
      ip = need_value();
      auto p = parse_u64_in(need_value(), 1, 65535);
      if (!p.ok()) {
        std::fprintf(stderr, "bad --connect port: %s\n", p.error().message.c_str());
        return 2;
      }
      port = static_cast<uint16_t>(*p);
      have_connect = true;
    } else if (opt == "--index") {
      opts.index = std::strtol(need_value(), nullptr, 10);
      have_index = true;
    } else if (opt == "--skew-ns") {
      opts.skew = std::strtoll(need_value(), nullptr, 10);
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (!have_connect || !have_index || opts.index < 0 || argc - arg != 1) {
    usage(argv[0]);
    return 2;
  }
  auto addr = IpAddr::parse(ip);
  if (!addr.ok()) {
    std::fprintf(stderr, "bad --connect address: %s\n",
                 addr.error().message.c_str());
    return 2;
  }
  opts.controller = Endpoint{*addr, port};
  opts.trace_path = argv[arg];
  return replay::dist::run_worker(opts);
}

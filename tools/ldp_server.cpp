// ldp-server: the meta-DNS-server as a command-line tool. Loads one or more
// zone files (and optionally a views.conf written by ldp-zone-construct)
// and serves them over UDP+TCP until interrupted.
//
//   ldp-server [--port N] [--timeout SECONDS] [--views views.conf]
//              [--fault SPEC] [--limits SPEC] [--overload SPEC]
//              [--cache N] [--shards N] <zone>...
//
// Integer options are strict: plain digits in range (--port 0..65535, 0 =
// ephemeral; --timeout 1..86400; --cache 0..1048576; --shards 1..64).
//
// --cache N sizes the response template cache (0 disables it), for
// before/after measurement against the default.
//
// --shards N serves from N SO_REUSEPORT frontends, one event loop thread
// each (multi-core serving; connection/cache/impairment books are
// shard-local and merged into the exit summary, which then also lists
// each shard). The default of 1 is one frontend on one loop thread.
//
// --fault impairs the reply path (egress), e.g. loss:0.05,seed:42 — see
// ldp::fault for the full spec mini-language.
//
// --limits hardens the frontend (admission control + slow-client defense),
// e.g. max-conns:64,quota:4,read-deadline:2s,max-partial:4096; --overload
// sets the degradation policy, e.g. policy:refuse,high:48,low:32 — see
// server/limits.hpp. Both use the same strict key:value mini-language as
// --fault (unknown keys are errors).
//
// Without --views every zone lands in one catch-all view (a plain
// authoritative server); with it, the split-horizon view set from the zone
// constructor is recreated so the server can impersonate every nameserver
// in a trace (§2.4).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "server/sharded_frontend.hpp"
#include "util/strings.hpp"
#include "zone/parser.hpp"

using namespace ldp;

namespace {

server::ShardedServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

Result<zone::Zone> load_zone_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Err("cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return zone::parse_zone(ss.str());
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 5353;
  TimeNs timeout = 20 * kSecond;
  std::string views_path;
  std::vector<std::string> zone_paths;
  std::optional<fault::FaultSpec> fault_spec;
  server::LimitsConfig limits;
  server::OverloadConfig overload;
  std::optional<size_t> cache_entries;
  size_t shards = 1;

  for (int i = 1; i < argc; ++i) {
    std::string opt = argv[i];
    // Strict integer value for `opt` in [lo, hi]; a bad one exits 2.
    auto int_value = [&](uint64_t lo, uint64_t hi) {
      auto v = parse_u64_in(argv[++i], lo, hi);
      if (!v.ok()) {
        std::fprintf(stderr, "bad %s: %s\n", opt.c_str(), v.error().message.c_str());
        std::exit(2);
      }
      return *v;
    };
    if (opt == "--port" && i + 1 < argc) {
      port = static_cast<uint16_t>(int_value(0, 65535));
    } else if (opt == "--timeout" && i + 1 < argc) {
      timeout = static_cast<TimeNs>(int_value(1, 86400)) * kSecond;
    } else if (opt == "--views" && i + 1 < argc) {
      views_path = argv[++i];
    } else if (opt == "--fault" && i + 1 < argc) {
      auto spec = fault::parse_fault_spec(argv[++i]);
      if (!spec.ok()) {
        std::fprintf(stderr, "bad --fault spec: %s\n", spec.error().message.c_str());
        return 2;
      }
      fault_spec = *spec;
    } else if (opt == "--limits" && i + 1 < argc) {
      auto spec = server::parse_limits_spec(argv[++i]);
      if (!spec.ok()) {
        std::fprintf(stderr, "bad --limits spec: %s\n", spec.error().message.c_str());
        return 2;
      }
      limits = *spec;
    } else if (opt == "--overload" && i + 1 < argc) {
      auto spec = server::parse_overload_spec(argv[++i]);
      if (!spec.ok()) {
        std::fprintf(stderr, "bad --overload spec: %s\n", spec.error().message.c_str());
        return 2;
      }
      overload = *spec;
    } else if (opt == "--cache" && i + 1 < argc) {
      cache_entries = int_value(0, 1u << 20);
    } else if (opt == "--shards" && i + 1 < argc) {
      shards = int_value(1, 64);
    } else if (opt.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: %s [--port N] [--timeout SECONDS] [--views views.conf]"
                   " [--fault SPEC] [--limits SPEC] [--overload SPEC]"
                   " [--cache N] [--shards N] <zone-file>...\n",
                   argv[0]);
      return 2;
    } else {
      zone_paths.push_back(opt);
    }
  }
  if (zone_paths.empty() && views_path.empty()) {
    std::fprintf(stderr, "no zones given\n");
    return 2;
  }

  server::AuthServer auth;

  if (!views_path.empty()) {
    // views.conf lines: "view <zone-file> match-clients <addr>..."
    std::ifstream vf(views_path);
    if (!vf) {
      std::fprintf(stderr, "cannot open %s\n", views_path.c_str());
      return 1;
    }
    auto base_dir = std::filesystem::path(views_path).parent_path();
    std::string line;
    while (std::getline(vf, line)) {
      auto stripped = trim(line);
      if (stripped.empty() || stripped[0] == '#') continue;
      auto toks = split_ws(stripped);
      if (toks.size() < 3 || toks[0] != "view" || toks[2] != "match-clients") {
        std::fprintf(stderr, "bad views.conf line: %s\n", line.c_str());
        return 1;
      }
      auto zone = load_zone_file((base_dir / std::string(toks[1])).string());
      if (!zone.ok()) {
        std::fprintf(stderr, "%s\n", zone.error().message.c_str());
        return 1;
      }
      zone::View& v = auth.views().add_view(std::string(toks[1]));
      for (size_t t = 3; t < toks.size(); ++t) {
        auto addr = IpAddr::parse(toks[t]);
        if (!addr.ok()) {
          std::fprintf(stderr, "%s\n", addr.error().message.c_str());
          return 1;
        }
        v.match_clients.insert(*addr);
      }
      std::fprintf(stderr, "view %s: zone %s, %zu client addresses\n",
                   std::string(toks[1]).c_str(), zone->origin().to_string().c_str(),
                   v.match_clients.size());
      if (auto r = v.zones.add(std::move(*zone)); !r.ok()) {
        std::fprintf(stderr, "%s\n", r.error().message.c_str());
        return 1;
      }
    }
  }

  for (const auto& path : zone_paths) {
    auto zone = load_zone_file(path);
    if (!zone.ok()) {
      std::fprintf(stderr, "%s\n", zone.error().message.c_str());
      return 1;
    }
    std::fprintf(stderr, "zone %s: %zu records\n", zone->origin().to_string().c_str(),
                 zone->record_count());
    if (auto r = auth.default_zones().add(std::move(*zone)); !r.ok()) {
      std::fprintf(stderr, "%s\n", r.error().message.c_str());
      return 1;
    }
  }

  server::FrontendConfig fe_cfg;
  fe_cfg.bind = Endpoint{IpAddr{Ip4{127, 0, 0, 1}}, port};
  fe_cfg.tcp_idle_timeout = timeout;
  fe_cfg.fault = fault_spec;
  fe_cfg.limits = limits;
  fe_cfg.overload = overload;
  if (cache_entries.has_value()) {
    fe_cfg.response_cache_entries = *cache_entries;
    std::fprintf(stderr, "template cache: %zu entries\n", *cache_entries);
  }
  if (fault_spec.has_value())
    std::fprintf(stderr, "reply-path impairment: %s\n",
                 fault_spec->to_string().c_str());
  if (limits.any_enabled())
    std::fprintf(stderr, "limits: %s\n", limits.to_string().c_str());
  if (overload.enabled())
    std::fprintf(stderr, "overload: %s\n", overload.to_string().c_str());

  if (shards > 1)
    std::fprintf(stderr, "shards: %zu (SO_REUSEPORT, one event loop per shard)\n",
                 shards);
  auto started = server::ShardedServer::start(std::move(auth), fe_cfg, shards);
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.error().message.c_str());
    return 1;
  }
  server::ShardedServer& srv = **started;
  std::fprintf(stderr, "serving on %s (UDP+TCP, %llds idle timeout); ^C to stop\n",
               srv.endpoint().to_string().c_str(),
               static_cast<long long>(timeout / kSecond));
  g_server = &srv;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  srv.wait();

  const server::ShardedExitReport& report = srv.stop();
  const auto& stats = srv.auth().stats();
  std::fprintf(stderr, "served %llu queries (%llu refused, %llu nxdomain)\n",
               static_cast<unsigned long long>(stats.queries.load()),
               static_cast<unsigned long long>(stats.refused.load()),
               static_cast<unsigned long long>(stats.nxdomain.load()));
  // One shard's books are the merged books; several get one line each too.
  const char* merged = shards > 1 ? " (merged)" : "";
  if (shards > 1) {
    for (size_t s = 0; s < report.per_shard.size(); ++s)
      std::fprintf(stderr, "shard %zu connections: %s\n", s,
                   report.per_shard[s].connections.summary().c_str());
  }
  std::fprintf(stderr, "connections%s: %s\n", merged,
               report.connections.summary().c_str());
  if (fault_spec.has_value())
    std::fprintf(stderr, "impairments%s: %s\n", merged,
                 report.impairments.summary().c_str());
  return 0;
}

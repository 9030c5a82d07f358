// Workload inputs, the served zones, the output spot check, and the small
// shared helpers (key=value lines, process probes).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "dns/message.hpp"
#include "mutate/mutator.hpp"
#include "perfbench.hpp"
#include "server/response_cache.hpp"
#include "synth/generator.hpp"
#include "zone/parser.hpp"

namespace perfbench {

using namespace ldp;

// --- key=value lines -------------------------------------------------------

std::string format_kv(std::string_view verb, const Kv& kv) {
  std::string out(verb);
  char buf[64];
  for (const auto& [k, v] : kv) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += ' ';
    out += k;
    out += '=';
    out += buf;
  }
  return out;
}

Kv parse_kv(std::string_view line, std::string* verb) {
  Kv kv;
  std::istringstream in{std::string(line)};
  std::string word;
  bool first = true;
  while (in >> word) {
    auto eq = word.find('=');
    if (eq == std::string::npos) {
      if (first && verb != nullptr) *verb = word;
    } else {
      kv[word.substr(0, eq)] = std::strtod(word.c_str() + eq + 1, nullptr);
    }
    first = false;
  }
  return kv;
}

double kv_get(const Kv& kv, const std::string& key, double fallback) {
  auto it = kv.find(key);
  return it == kv.end() ? fallback : it->second;
}

// --- process probes ----------------------------------------------------------

TimeNs process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<TimeNs>(tv.tv_sec) * kSecond +
           static_cast<TimeNs>(tv.tv_usec) * kMicro;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

uint64_t rss_kb_now() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

// --- workloads ------------------------------------------------------------------

namespace {

constexpr double kRootRateQps = 5000;
// 1000 sources keep every per-source mechanism (a socket, an arena and map
// entries per source, shared ephemeral ports) while leaving the querier
// below saturation; at 2000 it saturates on a 4-core host and its lateness
// swings between 30 us and 1.6 ms from run to run.
constexpr size_t kRootClients = 1000;
constexpr TimeNs kLadderGap = 100 * kMicro;  // the 10k q/s step
constexpr size_t kLadderSources = 4;

/// Fig 9's query: www.example.com/A, 33 bytes on the wire.
std::vector<uint8_t> identical_query(uint16_t id) {
  return dns::Message::make_query(id, *dns::Name::parse("www.example.com"),
                                  dns::RRType::A)
      .to_wire();
}

std::vector<TraceRecord> root_trace(uint64_t seed, double seconds) {
  synth::RootTraceSpec spec;
  spec.mean_rate_qps = kRootRateQps;
  spec.duration_ns = sec_to_ns(seconds);
  spec.client_count = kRootClients;
  spec.do_fraction = 0.723;
  spec.tcp_fraction = 0.03;
  spec.junk_fraction = 0.35;
  spec.seed = seed;
  return synth::make_root_trace(spec);
}

/// Fixed-gap shape from the public synth generator, 4 sources.
std::vector<TraceRecord> fixed_gap(TimeNs gap, TimeNs length, uint64_t seed) {
  synth::FixedTraceSpec spec;
  spec.interarrival_ns = gap;
  spec.duration_ns = length;
  spec.client_count = kLadderSources;
  spec.seed = seed;
  return synth::make_fixed_trace(spec);
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "root_mix") return Workload::RootMix;
  if (name == "identical_ladder") return Workload::IdenticalLadder;
  if (name == "root_all_tcp") return Workload::RootAllTcp;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::RootMix: return "root_mix";
    case Workload::IdenticalLadder: return "identical_ladder";
    case Workload::RootAllTcp: return "root_all_tcp";
  }
  return "?";
}

std::vector<TraceRecord> make_workload_trace(Workload w, uint64_t seed,
                                             double seconds) {
  switch (w) {
    case Workload::RootMix:
      return root_trace(seed, seconds);
    case Workload::RootAllTcp: {
      mutate::MutatorPipeline pipe;
      pipe.force_transport(Transport::Tcp);
      return pipe.apply_all(root_trace(seed, seconds));
    }
    case Workload::IdenticalLadder: {
      auto trace = fixed_gap(kLadderGap, sec_to_ns(seconds), seed);
      for (size_t i = 0; i < trace.size(); ++i)
        trace[i].dns_payload = identical_query(static_cast<uint16_t>(i & 0xffff));
      return trace;
    }
  }
  return {};
}

std::vector<TraceRecord> make_probe_trace(const std::vector<TraceRecord>& pool,
                                          double rate_qps, TimeNs length,
                                          uint64_t seed) {
  auto gap = static_cast<TimeNs>(static_cast<double>(kSecond) / rate_qps);
  auto trace = fixed_gap(std::max<TimeNs>(gap, 1), length, seed);
  for (size_t i = 0; i < trace.size() && !pool.empty(); ++i) {
    const TraceRecord& src = pool[i % pool.size()];
    trace[i].dns_payload = src.dns_payload;
    trace[i].transport = src.transport;
  }
  return trace;
}

ldp::server::AuthServer make_auth_server() {
  server::AuthServer s;
  std::string zone_text = R"(
$ORIGIN .
$TTL 86400
. IN SOA a.root-servers.net. nstld.verisign-grs.com. 2016040600 1800 900 604800 86400
)";
  static const char* kRootLetters[] = {"a", "b", "c", "d", "e", "f", "g",
                                       "h", "i", "j", "k", "l", "m"};
  for (int i = 0; i < 13; ++i) {
    zone_text += std::string(". IN NS ") + kRootLetters[i] + ".root-servers.net.\n";
    zone_text += std::string(kRootLetters[i]) + ".root-servers.net. IN A 198.41.0." +
                 std::to_string(4 + i) + "\n";
  }
  static const char* kTlds[] = {"com", "net", "org", "arpa", "edu", "gov",
                                "io",  "de",  "uk",  "jp",   "cn",  "fr"};
  int subnet = 10;
  for (const char* tld : kTlds) {
    for (int ns = 0; ns < 4; ++ns) {
      std::string host = std::string(kRootLetters[ns]) + ".nic-servers." + tld + ".";
      zone_text += std::string(tld) + ". IN NS " + host + "\n";
      zone_text += host + " IN A 192." + std::to_string(subnet) + ".6." +
                   std::to_string(30 + ns) + "\n";
    }
    ++subnet;
  }
  auto root = zone::parse_zone(zone_text);
  auto example = zone::parse_zone(R"(
$ORIGIN example.com.
$TTL 3600
@ IN SOA ns1 admin 1 7200 900 1209600 300
@ IN NS ns1
ns1 IN A 192.0.2.1
* IN A 192.0.2.80
)");
  if (!root.ok() || !example.ok() || !s.default_zones().add(std::move(*root)).ok() ||
      !s.default_zones().add(std::move(*example)).ok()) {
    std::fprintf(stderr, "perfbench: served zones failed to load\n");
    std::abort();
  }
  return s;
}

std::string check_server_outputs(const std::vector<TraceRecord>& trace) {
  constexpr size_t kChecked = 256;
  constexpr size_t kUdpLimit = 512;
  server::AuthServer auth = make_auth_server();
  server::ResponseCache cache(1024);
  const IpAddr client{Ip4{127, 0, 0, 1}};
  const dns::Name example = *dns::Name::parse("www.example.com");
  std::vector<uint8_t> hit;
  for (size_t i = 0; i < std::min(kChecked, trace.size()); ++i) {
    const auto& payload = trace[i].dns_payload;
    auto query = dns::Message::from_wire(payload);
    if (!query.ok()) return "query " + std::to_string(i) + " does not decode";
    auto wire = auth.answer_wire(payload, client, kUdpLimit);
    if (!wire.has_value()) return "no answer to query " + std::to_string(i);
    auto reply = dns::Message::from_wire(*wire);
    if (!reply.ok()) return "answer " + std::to_string(i) + " does not decode";
    const auto& h = reply->header;
    if (!h.qr || h.id != query->header.id || reply->questions != query->questions)
      return "answer " + std::to_string(i) + " does not match its query";
    if (h.rcode != dns::Rcode::NoError && h.rcode != dns::Rcode::NXDomain)
      return "answer " + std::to_string(i) + " has rcode " +
             dns::rcode_to_string(h.rcode);
    bool is_example = query->questions.front().qname == example &&
                      query->questions.front().qtype == dns::RRType::A;
    if (is_example && (h.rcode != dns::Rcode::NoError || reply->answers.empty()))
      return "www.example.com/A was not answered";
    // Template cache: a hit must reproduce the rendered answer byte for byte.
    cache.sync_revision(auth.revision());
    bool nx = false;
    auto outcome = cache.probe(payload, kUdpLimit, hit, nx);
    if (outcome == server::ResponseCache::Outcome::Miss) {
      cache.insert(*wire);
      outcome = cache.probe(payload, kUdpLimit, hit, nx);
    }
    if (outcome == server::ResponseCache::Outcome::Hit && hit != *wire)
      return "template-cache reply differs from rendered answer " + std::to_string(i);
  }
  return "";
}

}  // namespace perfbench

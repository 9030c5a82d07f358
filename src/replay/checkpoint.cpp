#include "replay/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/base64.hpp"

namespace ldp::replay {

namespace {

constexpr std::string_view kMagic = "ldp-checkpoint v3";

// FNV-1a, the same construction stream_seed uses; good enough to tell two
// traces apart, cheap enough to run on every resume.
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

// Hex float round-trips the histogram's running sum exactly.
std::string hexdouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

void write_counter_block(std::ostream& os, const EngineReport& r) {
  metrics::for_each_counter(
      [&](metrics::CounterName name, metrics::MergeRule, const auto& value) {
        os << "counter " << name.str() << " " << value << "\n";
      },
      r);
  const metrics::Histogram& h = r.latency_hist;
  os << "hist " << h.count() << " " << h.min() << " " << h.max() << " "
     << hexdouble(h.sum()) << "\n";
  for (size_t b = 0; b < metrics::Histogram::kBuckets; ++b) {
    if (h.bucket_value(b) > 0) os << "bucket " << b << " " << h.bucket_value(b) << "\n";
  }
}

Result<bool> CounterBlockReader::read(const std::string& key,
                                      std::istringstream& ls, EngineReport& r) {
  if (key == "counter") {
    std::string name;
    ls >> name;
    bool known = false;
    metrics::for_each_counter(
        [&](metrics::CounterName n, metrics::MergeRule, auto& value) {
          if (!known && n.str() == name) {
            known = true;
            ls >> value;
          }
        },
        r);
    if (!known) return Err("unknown counter '" + name + "'");
  } else if (key == "hist") {
    std::string sum_text;
    ls >> hist_count_ >> hist_min_ >> hist_max_ >> sum_text;
    hist_sum_ = std::strtod(sum_text.c_str(), nullptr);
  } else if (key == "bucket") {
    size_t b = 0;
    uint64_t v = 0;
    ls >> b >> v;
    if (b >= metrics::Histogram::kBuckets)
      return Err("histogram bucket out of range");
    buckets_[b] = v;
  } else {
    return false;
  }
  return true;
}

void CounterBlockReader::finish(EngineReport& r) const {
  r.latency_hist.restore_state(buckets_, hist_count_, hist_min_, hist_max_,
                               hist_sum_);
}

uint64_t trace_fingerprint(const std::vector<trace::TraceRecord>& trace) {
  uint64_t h = kFnvOffset;
  for (const auto& rec : trace) {
    if (rec.direction != trace::Direction::Query) continue;
    fnv_mix(h, static_cast<uint64_t>(rec.timestamp));
    fnv_mix(h, rec.src.addr.hash());
    fnv_mix(h, static_cast<uint64_t>(rec.transport));
    fnv_mix(h, rec.dns_payload.size());
    if (rec.dns_payload.size() >= 2)
      fnv_mix(h, static_cast<uint64_t>(rec.dns_payload[0]) << 8 |
                     rec.dns_payload[1]);
  }
  return h;
}

std::string serialize_checkpoint(const CheckpointState& state) {
  std::ostringstream os;
  os << kMagic << "\n";
  os << "trace " << state.trace_hash << " " << state.trace_queries << "\n";
  write_counter_block(os, state.partial);
  for (const auto& [ip, n] : state.sent) os << "sent " << ip << " " << n << "\n";
  for (const auto& [name, pos] : state.streams) {
    os << "stream " << name << " " << pos.packets << " " << pos.corrupt_words
       << " ";
    if (pos.origin_offset == fault::FaultStream::kNoOrigin)
      os << "none";
    else
      os << pos.origin_offset;
    os << "\n";
  }
  for (const auto& pq : state.pending) {
    os << "pending " << pq.record.source.to_string() << " "
       << transport_name(pq.transport) << " " << pq.retries_used << " "
       << pq.record.retries << " " << pq.record.trace_time << " "
       << pq.record.querier << " "
       << (pq.payload.empty() ? std::string("-") : base64_encode(pq.payload))
       << "\n";
  }
  os << "end\n";
  return os.str();
}

Result<void> save_checkpoint(const std::string& path,
                             const CheckpointState& state) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) return Err("cannot write checkpoint: " + tmp);
    os << serialize_checkpoint(state);
    os.flush();
    if (!os) return Err("short write to checkpoint: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    return Err("cannot rename checkpoint into place: " + path, errno);
  return Ok();
}

Result<CheckpointState> parse_checkpoint(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kMagic)
    return Err("not a checkpoint (bad magic)");

  CheckpointState st;
  CounterBlockReader block;
  bool saw_end = false;

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "end") {
      saw_end = true;
      break;
    } else if (key == "trace") {
      ls >> st.trace_hash >> st.trace_queries;
    } else if (key == "sent") {
      std::string ip;
      uint64_t n = 0;
      ls >> ip >> n;
      st.sent[ip] = n;
    } else if (key == "stream") {
      std::string name, offset;
      fault::FaultStream::Position pos;
      ls >> name >> pos.packets >> pos.corrupt_words >> offset;
      if (offset != "none") pos.origin_offset = std::strtoll(offset.c_str(), nullptr, 10);
      st.streams[name] = pos;
    } else if (key == "pending") {
      std::string ip, transport, b64;
      CheckpointPending pq;
      ls >> ip >> transport >> pq.retries_used >> pq.record.retries >>
          pq.record.trace_time >> pq.record.querier >> b64;
      auto addr = IpAddr::parse(ip);
      if (!addr.ok()) return Err("checkpoint pending: bad source " + ip);
      pq.record.source = *addr;
      auto tr = transport_from_string(transport);
      if (!tr.ok()) return Err("checkpoint pending: " + tr.error().message);
      pq.transport = *tr;
      if (b64 != "-") {
        auto payload = base64_decode(b64);
        if (!payload.ok())
          return Err("checkpoint pending: bad payload: " + payload.error().message);
        pq.payload = std::move(*payload);
      }
      st.pending.push_back(std::move(pq));
    } else {
      auto in_block = block.read(key, ls, st.partial);
      if (!in_block.ok()) return Err("checkpoint: " + in_block.error().message);
      if (!*in_block) return Err("checkpoint: unknown record '" + key + "'");
    }
    if (ls.fail()) return Err("checkpoint: malformed '" + key + "' line");
  }
  if (!saw_end) return Err("checkpoint truncated (no end marker)");
  block.finish(st.partial);
  return st;
}

Result<CheckpointState> load_checkpoint(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Err("cannot read checkpoint: " + path);
  std::ostringstream text;
  text << is.rdbuf();
  auto st = parse_checkpoint(text.str());
  if (!st.ok()) return Err(st.error().message + ": " + path);
  return st;
}

}  // namespace ldp::replay

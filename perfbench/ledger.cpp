// Ledger pass: the workload's own records fed through each layer's public
// calls, one batch at a time, reporting ns/op (median of kReps batches) and
// allocations/op. Every batch also checks the layer's output, so a fast but
// wrong layer fails the run instead of improving the ledger.
#include <algorithm>
#include <memory>
#include <thread>

#include "dns/message.hpp"
#include "mutate/mutator.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "perfbench.hpp"
#include "replay/pending.hpp"
#include "server/response_cache.hpp"
#include "trace/binary.hpp"
#include "util/queue.hpp"

namespace perfbench {

using namespace ldp;

namespace {

constexpr int kReps = 5;
constexpr size_t kOpsPerBatch = 20000;
constexpr size_t kPendingWindow = 64;  // in-flight queries per match round
constexpr size_t kRssSockets = 64;
constexpr size_t kCachedShapes = 512;
constexpr size_t kUdpLimit = 512;

/// One timed batch: the body's ops, wall time and allocations.
struct Batch {
  size_t ops = 0;
  TimeNs start = 0;
  TimeNs end = 0;
  uint64_t allocs = 0;
};

/// Time `body` (which returns the ops it did) on the calling thread.
template <typename Body>
Batch timed(Body&& body) {
  Batch b;
  uint64_t a0 = thread_allocs();
  b.start = mono_now_ns();
  b.ops = body();
  b.end = mono_now_ns();
  b.allocs = thread_allocs() - a0;
  return b;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

uint16_t dns_id(const std::vector<uint8_t>& payload) {
  return payload.size() >= 2 ? static_cast<uint16_t>(payload[0] << 8 | payload[1]) : 0;
}

const Endpoint kLoopback{IpAddr{Ip4{127, 0, 0, 1}}, 0};

class Ledger {
 public:
  Ledger(const std::vector<TraceRecord>& trace, std::vector<LedgerSpan>& spans)
      : ops(trace.begin(),
            trace.begin() + static_cast<std::ptrdiff_t>(std::min(kOpsPerBatch, trace.size()))),
        spans_(spans) {}

  /// Run `batch` kReps times under span `name` and record the median
  /// ns/op as out[ns_key] (and the median allocations/op as
  /// out[allocs_key] when given). `batch` prepares its inputs untimed and
  /// returns timed(...) around the layer calls only.
  template <typename Fn>
  void measure(const char* name, Fn&& batch, const char* ns_key,
               const char* allocs_key = nullptr) {
    std::vector<double> ns, allocs;
    for (int rep = 0; rep < kReps && error.empty(); ++rep) {
      Batch b = batch();
      spans_.push_back({name, b.start, b.end});
      if (b.ops == 0) continue;
      double n = static_cast<double>(b.ops);
      ns.push_back(static_cast<double>(b.end - b.start) / n);
      allocs.push_back(static_cast<double>(b.allocs) / n);
    }
    out[ns_key] = median(ns);
    if (allocs_key != nullptr) out[allocs_key] = median(allocs);
  }

  void fail(std::string why) {
    if (error.empty()) error = std::move(why);
  }

  const std::vector<TraceRecord> ops;
  Kv out;
  std::string error;

 private:
  std::vector<LedgerSpan>& spans_;
};

/// RSS cost of one bound UDP socket after it has received one datagram
/// through recv_batch (the replayer keeps one such socket per trace
/// source). Measured first, before other batches leave freed-but-resident
/// heap behind for reuse.
void rss_per_udp_socket(Ledger& L) {
  auto tx = net::UdpSocket::bind(kLoopback);
  if (!tx.ok()) return L.fail("udp bind failed");
  const auto& payload = L.ops.front().dns_payload;
  std::vector<net::UdpSocket> socks;
  socks.reserve(kRssSockets);
  uint64_t rss0 = rss_kb_now();
  for (size_t i = 0; i < kRssSockets; ++i) {
    auto s = net::UdpSocket::bind(kLoopback);
    if (!s.ok()) return L.fail("udp bind failed");
    auto ep = s->local_endpoint();
    if (!ep.ok() || !tx->send_to(*ep, payload).value_or(false))
      return L.fail("udp send failed");
    auto got = s->recv_batch();
    if (!got.ok() || got->size() != 1 || got->front().payload.size() != payload.size())
      return L.fail("a udp socket did not receive its datagram");
    socks.push_back(std::move(*s));
  }
  uint64_t rss1 = rss_kb_now();
  L.out["socket.rss_kb_per_udp_socket"] =
      static_cast<double>(rss1 - std::min(rss0, rss1)) / kRssSockets;
}

/// sendmmsg/recvmmsg of the workload's payloads over loopback, 16 at a time.
void socket_batches(Ledger& L, std::vector<LedgerSpan>& spans) {
  auto tx = net::UdpSocket::bind(kLoopback);
  auto rx = net::UdpSocket::bind(kLoopback);
  if (!tx.ok() || !rx.ok()) return L.fail("udp bind failed");
  auto dst = rx->local_endpoint();
  if (!dst.ok()) return L.fail("udp local endpoint unknown");
  std::vector<double> send_ns, recv_ns;
  std::vector<net::UdpSocket::OutDatagram> batch;
  for (int rep = 0; rep < kReps; ++rep) {
    TimeNs t_send = 0, t_recv = 0;
    TimeNs t0 = mono_now_ns();
    for (size_t base = 0; base < L.ops.size(); base += net::UdpSocket::kBatchSize) {
      size_t end = std::min(L.ops.size(), base + net::UdpSocket::kBatchSize);
      batch.clear();
      for (size_t i = base; i < end; ++i) batch.push_back({*dst, L.ops[i].dns_payload});
      TimeNs a = mono_now_ns();
      auto n = tx->send_batch(batch);
      TimeNs b = mono_now_ns();
      if (!n.ok() || *n != batch.size()) return L.fail("send_batch dropped a datagram");
      size_t got = 0;
      for (int spins = 0; got < batch.size() && spins < 1000; ++spins) {
        auto views = rx->recv_batch();
        if (!views.ok()) return L.fail("recv_batch failed");
        for (const auto& v : *views) {
          if (got >= batch.size() ||
              v.payload.size() != L.ops[base + got].dns_payload.size())
            return L.fail("recv_batch returned a different datagram");
          ++got;
        }
      }
      TimeNs c = mono_now_ns();
      if (got != batch.size()) return L.fail("recv_batch lost a datagram");
      t_send += b - a;
      t_recv += c - b;
    }
    spans.push_back({"ledger.socket.batch", t0, mono_now_ns()});
    double n = static_cast<double>(L.ops.size());
    send_ns.push_back(static_cast<double>(t_send) / n);
    recv_ns.push_back(static_cast<double>(t_recv) / n);
  }
  L.out["socket.send_batch_ns_per_datagram"] = median(send_ns);
  L.out["socket.recv_batch_ns_per_datagram"] = median(recv_ns);
}

}  // namespace

Kv run_ledger(const std::vector<TraceRecord>& trace,
              const std::vector<uint8_t>& trace_file_bytes,
              std::vector<LedgerSpan>& spans, std::string& error) {
  if (trace.empty()) {
    error = "ledger: empty trace";
    return {};
  }
  Ledger L(trace, spans);
  const auto& ops = L.ops;
  const IpAddr client{Ip4{127, 0, 0, 1}};

  rss_per_udp_socket(L);

  // trace: BinaryReader::next over the workload's whole .ldpb file.
  L.measure(
      "ledger.trace.read",
      [&] {
        auto reader = trace::BinaryReader::from_bytes(trace_file_bytes);
        if (!reader.ok()) return L.fail("ldpb bytes rejected"), Batch{};
        Batch b = timed([&]() -> size_t {
          size_t n = 0;
          for (;;) {
            auto rec = reader->next();
            if (!rec.ok() || !rec->has_value()) break;
            ++n;
          }
          return n;
        });
        if (b.ops != trace.size()) L.fail("BinaryReader returned a different record count");
        return b;
      },
      "trace.read_ns_per_record", "trace.read_allocs_per_record");

  // mutate: the §5.2 all-TCP what-if, one record at a time.
  mutate::MutatorPipeline to_tcp;
  to_tcp.force_transport(Transport::Tcp);
  L.measure(
      "ledger.mutate.force_tcp",
      [&] {
        std::vector<TraceRecord> work = ops;
        return timed([&]() -> size_t {
          size_t kept = 0;
          for (auto& rec : work) {
            auto v = to_tcp.apply(rec);
            kept += v.ok() && *v == mutate::Verdict::Keep && rec.transport == Transport::Tcp;
          }
          if (kept != work.size()) L.fail("force_transport(Tcp) did not rewrite a record");
          return kept;
        });
      },
      "mutate.force_tcp_ns_per_record");

  // queue: one cross-thread BoundedQueue push→pop per record (the engine
  // makes two hops per query: controller → distributor → querier).
  L.measure(
      "ledger.queue.hop",
      [&] {
        std::vector<TraceRecord> work = ops;
        return timed([&]() -> size_t {
          BoundedQueue<TraceRecord> q(4096);
          std::thread producer([&] {
            for (auto& rec : work) q.push(std::move(rec));
            q.close();
          });
          size_t popped = 0;
          while (auto rec = q.pop()) popped += rec->dns_payload.empty() ? 0 : 1;
          producer.join();
          if (popped != work.size()) L.fail("BoundedQueue lost records");
          return popped;
        });
      },
      "queue.hop_ns");

  // event_loop: add_timer_at + fire with a closure capturing the record, as
  // the querier does for every record it defers in timed mode.
  std::vector<std::shared_ptr<TraceRecord>> shared;
  for (const auto& rec : ops) shared.push_back(std::make_shared<TraceRecord>(rec));
  L.measure(
      "ledger.event_loop.timer",
      [&] {
        net::EventLoop loop;
        return timed([&]() -> size_t {
          size_t fired = 0;
          TimeNs due = mono_now_ns();
          for (const auto& rec : shared)
            loop.add_timer_at(due, [&fired, rec] { fired += rec->dns_payload.empty() ? 0 : 1; });
          for (int spins = 0; fired < shared.size() && spins < 1000; ++spins) loop.poll_once(0);
          if (fired != shared.size()) L.fail("EventLoop did not fire every due timer");
          return fired;
        });
      },
      "event_loop.timer_ns");

  // pending: insert a window of in-flight queries (payload copied, as the
  // querier does), then match each one's answer by DNS id.
  L.measure(
      "ledger.pending.insert_match",
      [&] {
        replay::PendingTable table;
        return timed([&]() -> size_t {
          uint64_t key = 0;
          size_t matched = 0;
          TimeNs now = mono_now_ns();
          for (size_t base = 0; base < ops.size(); base += kPendingWindow) {
            size_t end = std::min(ops.size(), base + kPendingWindow);
            for (size_t i = base; i < end; ++i) {
              replay::PendingQuery pq;
              pq.key = key++;
              pq.dns_id = dns_id(ops[i].dns_payload);
              pq.first_send = now;
              pq.deadline = now + kSecond;
              pq.source = ops[i].src.addr;
              pq.payload = ops[i].dns_payload;
              table.insert(std::move(pq));
            }
            for (size_t i = base; i < end; ++i)
              matched += table.match(dns_id(ops[i].dns_payload)).has_value() ? 1 : 0;
          }
          if (matched != ops.size() || !table.empty())
            L.fail("PendingTable did not match every response");
          return matched;
        });
      },
      "pending.insert_match_ns", "pending.allocs_per_query");

  socket_batches(L, spans);

  // dns: full message decode of each query.
  L.measure(
      "ledger.dns.decode",
      [&] {
        return timed([&]() -> size_t {
          size_t ok = 0;
          for (const auto& rec : ops) ok += dns::Message::from_wire(rec.dns_payload).ok();
          if (ok != ops.size()) L.fail("a workload query does not decode");
          return ok;
        });
      },
      "dns.decode_ns_per_query");

  // server: the cache-miss path (lookup + render) ...
  server::AuthServer auth = make_auth_server();
  L.measure(
      "ledger.server.answer",
      [&] {
        return timed([&]() -> size_t {
          size_t answered = 0;
          for (const auto& rec : ops)
            answered += auth.answer_wire(rec.dns_payload, client, kUdpLimit).has_value();
          if (answered != ops.size()) L.fail("AuthServer left a query unanswered");
          return answered;
        });
      },
      "server.answer_ns_per_query", "server.answer_allocs_per_query");

  // ... and the template-cache hit, over up to kCachedShapes stored shapes.
  server::ResponseCache cache(1024);
  cache.sync_revision(auth.revision());
  std::vector<const std::vector<uint8_t>*> cached;
  std::vector<uint8_t> reply;
  bool nx = false;
  using Outcome = server::ResponseCache::Outcome;
  for (const auto& rec : ops) {
    if (cached.size() >= kCachedShapes) break;
    if (cache.probe(rec.dns_payload, kUdpLimit, reply, nx) == Outcome::Miss) {
      if (auto wire = auth.answer_wire(rec.dns_payload, client, kUdpLimit)) cache.insert(*wire);
    }
    if (cache.probe(rec.dns_payload, kUdpLimit, reply, nx) == Outcome::Hit)
      cached.push_back(&rec.dns_payload);
  }
  if (cached.empty()) {
    L.fail("no workload query is cacheable");
  } else {
    L.measure(
        "ledger.server.cache_probe",
        [&] {
          return timed([&]() -> size_t {
            size_t hits = 0;
            for (size_t i = 0; i < ops.size(); ++i)
              hits += cache.probe(*cached[i % cached.size()], kUdpLimit, reply, nx) ==
                      Outcome::Hit;
            if (hits != ops.size()) L.fail("template cache missed a stored query");
            return hits;
          });
        },
        "server.cache_probe_ns_per_query");
  }

  if (!L.error.empty()) error = "ledger: " + L.error;
  return L.out;
}

}  // namespace perfbench

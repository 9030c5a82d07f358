// Socket frontend for AuthServer: UDP + framed-TCP listeners on an
// EventLoop, with the connection management knobs the §5.2 experiments
// turn — per-connection idle timeout (5–40 s sweep) and connection
// accounting — plus the resilience layer a production server needs when
// connection state runs out: admission control (max_connections with LRU
// eviction, per-client quotas), slow-client defense (read/write deadlines,
// bounded partial-frame buffers), and adaptive overload degradation
// (refuse/drop/truncate with hysteresis). See server/limits.hpp for the
// knobs and DESIGN.md §Server-side resilience for the state machines.
#pragma once

#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include <optional>

#include "fault/fault.hpp"
#include "net/event_loop.hpp"
#include "net/impaired.hpp"
#include "net/socket.hpp"
#include "server/auth_server.hpp"
#include "server/limits.hpp"
#include "server/response_cache.hpp"

namespace ldp::server {

struct FrontendConfig {
  Endpoint bind{IpAddr{Ip4{127, 0, 0, 1}}, 0};  ///< port 0 = ephemeral
  /// Join an SO_REUSEPORT group on both sockets: N frontends (one per
  /// shard thread, each on its own EventLoop) bind the same port and the
  /// kernel spreads datagrams/accepts across them. Every member must set
  /// this — see server::ShardedServer for the fan-out that uses it.
  bool reuse_port = false;
  /// Idle-connection timeout (the Figures 11/13/14 sweep variable).
  TimeNs tcp_idle_timeout = 20 * kSecond;
  /// How often the idle/deadline sweep runs.
  TimeNs sweep_interval = kSecond;
  size_t udp_payload_limit = 512;
  /// Admission control and slow-client defense (zeroes = unhardened).
  LimitsConfig limits;
  /// Overload degradation policy (None = never degrade).
  OverloadConfig overload;
  /// Response template cache entries (0 disables): identical UDP queries
  /// are answered from a pre-rendered template with only the DNS ID and RD
  /// bit patched. Automatically bypassed for rotate_answers servers and
  /// split-horizon view sets, where clients may legitimately receive
  /// different bytes for the same question.
  size_t response_cache_entries = 1024;
  /// Egress impairment: replies leave through fault streams "srv:udp" /
  /// "srv:tcp" (a lossy link is symmetric for query/response accounting —
  /// an eaten reply and an eaten query both look like a lost exchange to
  /// the client). A TCP link-flap drop closes the connection, exercising
  /// client reconnect paths. nullopt = clean link.
  std::optional<fault::FaultSpec> fault;
};

/// Why a TCP connection was closed — each reason is its own counter so the
/// established gauge is auditable against the close totals (see
/// ConnectionStats::consistent()).
enum class CloseReason : uint8_t {
  Idle,        ///< idle-timeout sweep (the §5.2 sweep variable)
  Peer,        ///< orderly close by the client
  Error,       ///< socket error, failed send, or injected link-down
  EvictedLru,  ///< closed to admit a new connection at max_connections
  Deadline,    ///< slow-client read deadline: partial frame, no progress
  WriteStall,  ///< write deadline: peer stopped reading its replies
  Overflow,    ///< partial-frame buffer exceeded max_partial_bytes
  Shutdown,    ///< frontend shutdown closed it
};

struct ConnectionStats {
  uint64_t accepted = 0;  ///< admitted connections (excludes quota refusals)
  uint64_t closed_idle = 0;
  uint64_t closed_by_peer = 0;
  uint64_t closed_error = 0;
  uint64_t closed_shutdown = 0;
  // --- resilience layer ---------------------------------------------------
  uint64_t evicted_lru = 0;       ///< LRU closes to stay under max_connections
  uint64_t refused_quota = 0;     ///< accepts closed for per-client quota
  uint64_t deadline_closed = 0;   ///< slow-client read-deadline closes
  uint64_t write_stall_closed = 0;
  uint64_t overflow_closed = 0;   ///< partial-buffer cap closes
  uint64_t refused_overload = 0;  ///< queries answered REFUSED while overloaded
  uint64_t dropped_overload = 0;  ///< queries dropped while overloaded
  uint64_t truncated_overload = 0;  ///< queries answered TC=1 while overloaded
  uint64_t overload_entered = 0;  ///< high-watermark crossings
  uint64_t overload_exited = 0;   ///< recoveries past the low watermark
  size_t established = 0;  ///< currently open
  size_t peak_established = 0;

  uint64_t closed_total() const {
    return closed_idle + closed_by_peer + closed_error + closed_shutdown +
           evicted_lru + deadline_closed + write_stall_closed + overflow_closed;
  }
  /// Accounting invariant: every admitted connection is either still
  /// established or counted under exactly one close reason.
  bool consistent() const { return accepted == established + closed_total(); }

  /// Fold another shard's book into this one (merge-after-join: each shard
  /// thread owns its stats; the owner merges once the threads are joined).
  /// Every counter sums — including `established`, so consistent() holds
  /// for the merged book whenever it held per shard. `peak_established`
  /// sums too, making the merged peak an upper bound on simultaneously
  /// open connections (per-shard peaks need not align in time).
  void merge(const ConnectionStats& o);

  /// One-line "accepted 12  established 3 ..." report for tools and tests.
  std::string summary() const;
};

/// One running server endpoint (UDP + TCP on the same port).
class ServerFrontend {
 public:
  /// Binds both sockets and registers with the loop. The AuthServer must
  /// outlive the frontend.
  static Result<std::unique_ptr<ServerFrontend>> start(net::EventLoop& loop,
                                                       AuthServer& server,
                                                       FrontendConfig config);
  ~ServerFrontend();

  ServerFrontend(const ServerFrontend&) = delete;
  ServerFrontend& operator=(const ServerFrontend&) = delete;

  /// Actual bound endpoint (resolves port 0).
  const Endpoint& endpoint() const { return endpoint_; }

  const ConnectionStats& connections() const { return conn_stats_; }

  /// Currently in the overloaded state (degradation policy active)?
  bool overloaded() const { return overloaded_; }

  /// Combined fault-layer accounting for both egress streams (all zeroes
  /// when the frontend runs unimpaired).
  fault::ImpairmentCounters impairments() const;

  /// Template-cache statistics, or nullptr when the cache is disabled.
  const ResponseCache* response_cache() const {
    return cache_.has_value() ? &*cache_ : nullptr;
  }

  /// Close listeners and all connections (also done by the destructor).
  void shutdown();

 private:
  ServerFrontend(net::EventLoop& loop, AuthServer& server, FrontendConfig config)
      : loop_(loop), server_(server), config_(config) {}

  struct Connection {
    net::TcpStream stream;
    IpAddr client;
    TimeNs last_activity;   ///< any inbound bytes (LRU order, idle timeout)
    TimeNs last_progress;   ///< last *complete* message (read deadline)
    TimeNs write_blocked_since = 0;  ///< 0 = no reply bytes pending
    Connection(net::TcpStream s, TimeNs t)
        : stream(std::move(s)), client(stream.peer().addr), last_activity(t),
          last_progress(t) {}
  };
  using ConnIter = std::list<Connection>::iterator;

  void on_udp_readable();
  /// Answer one UDP query, staging the reply for the batch's sendmmsg.
  void handle_udp_query(const Endpoint& from, std::span<const uint8_t> query);
  /// One sendmmsg flush of the replies staged for the current inbound batch.
  void flush_udp_replies();
  /// A cleared reply buffer from the reusable arena (valid until the flush).
  std::vector<uint8_t>& next_reply_buf();
  /// Template cache usable for this process state? (single catch-all view,
  /// no answer rotation — see FrontendConfig::response_cache_entries.)
  bool cache_usable() const;
  void on_tcp_acceptable();
  void on_conn_readable(ConnIter it);
  /// Flush pending reply bytes; returns false if the connection was closed.
  bool on_conn_writable(ConnIter it);
  void close_connection(ConnIter it, CloseReason reason);
  void sweep_connections();
  /// Recompute the overload state after the established gauge changed.
  void update_overload();
  /// Apply the overload policy to one query. Returns true when the query
  /// was consumed (degraded reply already sent or query dropped);
  /// `reply_out` receives the degraded reply bytes for the TCP path.
  bool degrade_query(std::span<const uint8_t> query,
                     std::vector<uint8_t>* reply_out);
  /// Track reply bytes left unflushed on a connection: arms write interest
  /// and starts the write-deadline clock (or clears both when drained).
  /// Returns false when re-arming failed (caller closes the connection).
  bool note_pending_out(ConnIter it, size_t pending, TimeNs now);

  net::EventLoop& loop_;
  AuthServer& server_;
  FrontendConfig config_;
  Endpoint endpoint_;
  std::unique_ptr<fault::FaultStream> udp_fault_;  // must outlive udp_
  std::unique_ptr<fault::FaultStream> tcp_fault_;
  std::optional<net::ImpairedUdpSocket> udp_;
  std::optional<net::TcpListener> listener_;
  /// MRU order: front = most recently active, back = LRU eviction victim.
  std::list<Connection> connections_;
  std::unordered_map<IpAddr, size_t, IpAddrHash> per_client_;
  ConnectionStats conn_stats_;
  net::EventLoop::TimerId sweep_timer_ = 0;
  bool overloaded_ = false;
  bool shut_down_ = false;
  // --- UDP reply path --------------------------------------------------------
  std::optional<ResponseCache> cache_;
  // Replies staged for the current inbound batch: spans in udp_out_ point
  // into udp_out_bufs_ slots (reused across batches; cleared by the flush).
  std::vector<net::UdpSocket::OutDatagram> udp_out_;
  std::vector<std::vector<uint8_t>> udp_out_bufs_;
  size_t udp_out_used_ = 0;
  std::vector<net::ImpairedUdpSocket::SendOutcome> udp_send_outcomes_;  // scratch
};

}  // namespace ldp::server

// Impairment shims at the socket layer: the insertion point that lets the
// real-socket replay engine and the server frontend run under an
// ldp::fault scenario without changing their protocol logic. Impairment
// is applied on *egress* — the side this process controls — which is
// equivalent, from the sender's lifecycle viewpoint, to the link eating the
// packet in either direction (both surface as a missing response).
//
// ImpairedUdpSocket wraps a bound UdpSocket; sends consult a FaultStream
// and may be eaten, doubled, corrupted, or (given an EventLoop) delayed.
// TCP is a reliable stream, so datagram-style impairment applies at the
// framed-message boundary instead: impaired_tcp_send() decides one
// message's fate, and maps a link-flap drop to "connection lost" so the
// caller exercises its reconnect path — a flap under TCP kills the
// connection, it does not silently eat one segment.
#pragma once

#include "fault/fault.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"

namespace ldp::net {

class ImpairedUdpSocket {
 public:
  /// Wrap a socket. `stream` may be null (transparent passthrough) and is
  /// borrowed — the owner must outlive this socket. `loop` enables
  /// delay/reorder verdicts (packets are re-sent from a timer); without a
  /// loop those verdicts deliver immediately (still counted).
  ImpairedUdpSocket(UdpSocket sock, fault::FaultStream* stream = nullptr,
                    EventLoop* loop = nullptr)
      : sock_(std::move(sock)), stream_(stream), loop_(loop) {}

  int fd() const { return sock_.fd(); }
  Result<Endpoint> local_endpoint() const { return sock_.local_endpoint(); }
  UdpSocket& inner() { return sock_; }

  /// What became of one datagram handed to send_batch.
  enum class SendOutcome : uint8_t {
    Left,        ///< on the wire, or eaten/held by the link: to the caller it left
    KernelFull,  ///< EAGAIN/ENOBUFS: still the caller's to resend later
    Error,       ///< the kernel refused this datagram (e.g. EMSGSIZE)
  };

  /// Send datagrams through the impairment stream with sendmmsg: one fault
  /// draw per datagram, consumed in input order however many syscalls the
  /// batch spans, so fixed-seed impairment counters depend only on how many
  /// datagrams a stream was offered. `out[i]` is datagram i's outcome. A
  /// datagram the kernel refuses is an Error and the ones after it still
  /// go out; only a full kernel buffer leaves the rest KernelFull. A link
  /// verdict (drop, delay) is already applied, so its datagram is Left.
  void send_batch(std::span<const UdpSocket::OutDatagram> dgs,
                  std::vector<SendOutcome>& out);

  /// Receive passthrough (impairment is egress-side); views follow
  /// UdpSocket::recv_batch rules.
  Result<std::span<const UdpSocket::RecvView>> recv_batch() {
    return sock_.recv_batch();
  }

 private:
  UdpSocket sock_;
  fault::FaultStream* stream_;
  EventLoop* loop_;
  // send_batch scratch, reused across calls: the post-draw wire entries,
  // which original datagram each maps back to (kDupEntry = best-effort
  // duplicate with no outcome of its own), and owned copies of
  // corrupted payloads (corruption must not touch the caller's bytes).
  static constexpr size_t kDupEntry = static_cast<size_t>(-1);
  std::vector<UdpSocket::OutDatagram> entries_;
  std::vector<size_t> entry_owner_;
  std::vector<std::vector<uint8_t>> corrupt_scratch_;
};

/// Outcome of pushing one framed message through an impaired TCP path.
enum class TcpSendOutcome {
  Sent,      ///< message handed to the stream (possibly twice / corrupted)
  Eaten,     ///< impairment dropped the message; the connection lives on
  LinkDown,  ///< flap verdict: treat as connection loss (caller reconnects)
  Error,     ///< the underlying stream send failed
};

/// Send one DNS message over `tcp` through `stream` (null = passthrough).
/// `pending_out`, when non-null, receives the bytes still queued after the
/// flush attempt (callers re-arm write interest on it, as with
/// TcpStream::send_message).
TcpSendOutcome impaired_tcp_send(TcpStream& tcp, fault::FaultStream* stream,
                                 TimeNs now, std::span<const uint8_t> payload,
                                 size_t* pending_out = nullptr);

}  // namespace ldp::net

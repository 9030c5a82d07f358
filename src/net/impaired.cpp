#include "net/impaired.hpp"

namespace ldp::net {

void ImpairedUdpSocket::send_batch(std::span<const UdpSocket::OutDatagram> dgs,
                                   std::vector<SendOutcome>& out) {
  out.assign(dgs.size(), SendOutcome::Left);

  // Draw one verdict per input datagram up front, in input order, so the
  // stream consumes the same schedule whatever the kernel later accepts.
  // Survivors become wire entries for one chunked sendmmsg pass.
  entries_.clear();
  entry_owner_.clear();
  corrupt_scratch_.clear();
  for (size_t i = 0; i < dgs.size(); ++i) {
    fault::Verdict v = stream_ != nullptr ? stream_->next(mono_now_ns())
                                          : fault::Verdict{};
    if (v.is_drop()) continue;  // the link ate it; to the caller it left
    std::span<const uint8_t> bytes = dgs[i].payload;
    if (v.action == fault::Action::Corrupt) {
      corrupt_scratch_.emplace_back(bytes.begin(), bytes.end());
      stream_->corrupt(corrupt_scratch_.back());
      bytes = corrupt_scratch_.back();
    }
    if (v.extra_delay > 0 && loop_ != nullptr) {
      // Held by the link: deliver from a timer (which needs an owned copy).
      // Delivery failures at that point are indistinguishable from loss,
      // which is exactly what a delayed-then-dropped packet is.
      size_t copies = v.action == fault::Action::Duplicate ? 2 : 1;
      loop_->add_timer_after(
          v.extra_delay,
          [this, dst = dgs[i].dst,
           held = std::vector<uint8_t>(bytes.begin(), bytes.end()), copies] {
            for (size_t c = 0; c < copies; ++c) (void)sock_.send_to(dst, held);
          });
      continue;
    }
    entries_.push_back(UdpSocket::OutDatagram{dgs[i].dst, bytes});
    entry_owner_.push_back(i);
    if (v.action == fault::Action::Duplicate) {
      // Adjacent best-effort second copy: a full kernel buffer or an error
      // on it loses only the duplicate.
      entries_.push_back(UdpSocket::OutDatagram{dgs[i].dst, bytes});
      entry_owner_.push_back(kDupEntry);
    }
  }

  auto resolve = [&](size_t e, SendOutcome o) {
    if (entry_owner_[e] != kDupEntry) out[entry_owner_[e]] = o;
  };
  size_t e = 0;
  while (e < entries_.size()) {
    // A short prefix means the next entry hit a full buffer or a hard
    // error; retrying the tail at once tells the two apart.
    auto sent = sock_.send_batch(std::span(entries_).subspan(e));
    if (!sent.ok()) {
      resolve(e++, SendOutcome::Error);  // refused with zero progress
    } else if (*sent == 0) {
      for (; e < entries_.size(); ++e) resolve(e, SendOutcome::KernelFull);
    } else {
      e += *sent;
    }
  }
}

TcpSendOutcome impaired_tcp_send(TcpStream& tcp, fault::FaultStream* stream,
                                 TimeNs now, std::span<const uint8_t> payload,
                                 size_t* pending_out) {
  if (pending_out != nullptr) *pending_out = 0;
  if (stream == nullptr) {
    auto sent = tcp.send_message(payload);
    if (!sent.ok()) return TcpSendOutcome::Error;
    if (pending_out != nullptr) *pending_out = *sent;
    return TcpSendOutcome::Sent;
  }

  fault::Verdict v = stream->next(now);
  if (v.is_drop()) {
    return v.reason == fault::DropReason::Flap ? TcpSendOutcome::LinkDown
                                               : TcpSendOutcome::Eaten;
  }
  std::vector<uint8_t> bytes(payload.begin(), payload.end());
  if (v.action == fault::Action::Corrupt) stream->corrupt(bytes);
  auto sent = tcp.send_message(bytes);
  if (!sent.ok()) return TcpSendOutcome::Error;
  if (v.action == fault::Action::Duplicate) {
    auto again = tcp.send_message(bytes);
    if (!again.ok()) return TcpSendOutcome::Error;
    sent = again;
  }
  if (pending_out != nullptr) *pending_out = *sent;
  return TcpSendOutcome::Sent;
}

}  // namespace ldp::net

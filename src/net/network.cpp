#include "net/network.hpp"

#include "net/faults.hpp"

namespace djvm {

SendOutcome Network::try_send(const Message& msg) noexcept {
  const auto idx = static_cast<std::size_t>(msg.category);
  const std::uint64_t billed_bytes =
      msg.payload_bytes + (msg.piggybacked ? 0 : kMessageHeaderBytes);
  stats_.bytes[idx] += billed_bytes;
  stats_.messages[idx] += 1;
  SimTime t;
  if (msg.src == msg.dst) {
    // Local delivery: no wire cost, tiny copy cost.
    t = costs_.transfer_time(msg.payload_bytes) / 64;
  } else {
    t = costs_.transfer_time(billed_bytes);
    if (!msg.piggybacked) t += costs_.message_latency;
  }
  bool delivered = true;
  if (faults_ != nullptr) {
    const MessageFate fate = faults_->on_message(msg);
    // A spiked message still pays its inflated wire time even when the plan
    // also drops it elsewhere in the path; a dropped message bills its bytes
    // and send time — the sender spent them either way.
    t += fate.extra_ns;
    if (fate.dropped) {
      delivered = false;
      stats_.dropped[idx] += 1;
    }
  }
  if (msg.src != kInvalidNode) {
    NodeTraffic& nt = node_slot(msg.src);
    nt.bytes[idx] += billed_bytes;
    nt.messages[idx] += 1;
    nt.send_ns[idx] += t;
    if (!delivered) nt.dropped[idx] += 1;
  }
  return {t, delivered, 1};
}

SendOutcome Network::send_reliable(const Message& msg) noexcept {
  SendOutcome out = try_send(msg);
  if (out.delivered || faults_ == nullptr) return out;
  const auto idx = static_cast<std::size_t>(msg.category);
  const FaultKnobs& plan = faults_->plan();
  SimTime backoff = plan.retry_backoff_ns;
  while (out.attempts <= plan.max_retries) {
    // Bill the backoff wait before the re-send: the sender really sat out
    // that simulated time, and the overhead meter prices send_ns.
    out.elapsed += backoff;
    stats_.backoff_ns[idx] += backoff;
    stats_.retries[idx] += 1;
    if (msg.src != kInvalidNode) {
      NodeTraffic& nt = node_slot(msg.src);
      nt.backoff_ns[idx] += backoff;
      nt.retries[idx] += 1;
      nt.send_ns[idx] += backoff;
    }
    backoff *= 2;
    const SendOutcome attempt = try_send(msg);
    out.elapsed += attempt.elapsed;
    out.attempts += 1;
    if (attempt.delivered) {
      out.delivered = true;
      return out;
    }
    // A dead or partitioned destination can never deliver: stop burning the
    // retry budget once the plan says the path is severed.
    if (!faults_->reachable(msg.src, msg.dst)) break;
  }
  return out;
}

SimTime Network::round_trip(NodeId a, NodeId b, MsgCategory category,
                            std::uint64_t request_bytes,
                            std::uint64_t reply_bytes, bool* ok) noexcept {
  const SendOutcome req = send_reliable({a, b, category, request_bytes, false});
  if (!req.delivered) {
    // The request never arrived; there is no reply leg to bill.
    if (ok != nullptr) *ok = false;
    return req.elapsed;
  }
  const SendOutcome rep = send_reliable({b, a, category, reply_bytes, false});
  if (ok != nullptr) *ok = rep.delivered;
  return req.elapsed + rep.elapsed;
}

}  // namespace djvm

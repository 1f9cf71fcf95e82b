#include "tcp/sink.hpp"

#include <utility>

#include "net/checksum.hpp"
#include "sim/incident_hooks.hpp"

namespace hwatch::tcp {

TcpSink::TcpSink(net::Network& net, net::Host& host, std::uint16_t port,
                 TcpConfig config)
    : net_(net),
      ctx_(net.ctx()),
      host_(host),
      port_(port),
      cfg_(config),
      delack_timer_(ctx_.scheduler(), [this] {
        send_ack(/*syn_ack=*/false, /*fin_ack=*/false);
      }) {
  host_.bind(port_, [this](net::Packet&& p) { on_packet(std::move(p)); });
}

TcpSink::~TcpSink() { host_.unbind(port_); }

double TcpSink::goodput_bps() const {
  if (stats_.first_data_time == sim::kTimeNever ||
      stats_.last_data_time <= stats_.first_data_time) {
    return 0.0;
  }
  const double span =
      sim::to_seconds(stats_.last_data_time - stats_.first_data_time);
  return static_cast<double>(stats_.bytes_received) * 8.0 / span;
}

net::Packet TcpSink::make_segment() const {
  net::Packet p;
  p.uid = ctx_.next_packet_uid();
  p.ip.src = host_.id();
  p.ip.dst = peer_node_;
  // ACKs from an ECN-capable endpoint are themselves ECT in our model
  // only for DCTCP-style stacks that want the reverse path watched; the
  // standard behaviour (pure ACKs Not-ECT) is kept.
  p.ip.ecn = net::Ecn::kNotEct;
  p.tcp.src_port = port_;
  p.tcp.dst_port = peer_port_;
  p.sent_time = ctx_.now();
  return p;
}

void TcpSink::on_packet(net::Packet&& p) {
  sim::ProfScope prof(ctx_.profiler(), sim::ProfComponent::kTcpSink);
  if (p.kind != net::PacketKind::kTcp) return;
  if (p.tcp.syn) {
    handle_syn(p);
    return;
  }
  if (!connected_) return;  // stray segment before SYN
  if (p.payload_bytes > 0 || p.tcp.fin) {
    handle_data(std::move(p));
  }
  // Pure ACKs towards the sink (e.g. the final ACK of the handshake)
  // need no action: the sink keeps no unacked state.
}

void TcpSink::handle_syn(const net::Packet& p) {
  // Idempotent: a retransmitted SYN elicits another SYN-ACK.
  peer_node_ = p.ip.src;
  peer_port_ = p.tcp.src_port;
  peer_wscale_ = p.tcp.wscale;
  peer_sack_ = p.tcp.sack_permitted && cfg_.sack;
  if (!connected_) {
    connected_ = true;
    rcv_nxt_ = p.tcp.seq + 1;  // SYN consumes one sequence number
    if (sim::IncidentSink* inc = ctx_.incidents()) {
      // Keyed in the sender's direction so the fan-in detector's flow
      // identities match the sender-side hooks and the span registry.
      const auto [hi, lo] = net::flow_key_words(net::flow_key_of(p));
      inc->on_sink_syn(host_.id(), hi, lo,
                       ctx_.tracer().flow_span_of(hi, lo), ctx_.now());
    }
  }
  update_ecn_state(p);
  send_ack(/*syn_ack=*/true, /*fin_ack=*/false);
}

void TcpSink::update_ecn_state(const net::Packet& p) {
  const bool ce = p.ip.ecn == net::Ecn::kCe;
  last_seg_ce_ = ce;
  if (ce) ++stats_.ce_marked_segments;
  if (cfg_.ecn == EcnMode::kClassic || cfg_.ecn == EcnMode::kBlind) {
    if (ce) ece_latched_ = true;
    if (p.tcp.cwr) ece_latched_ = false;
  }
}

void TcpSink::handle_data(net::Packet&& p) {
  // RFC 8257 delayed-ACK state machine: a change of the CE state while
  // an ACK is pending must first flush an ACK carrying the *old* state,
  // so the sender's marked-byte accounting stays exact.
  if (cfg_.ecn == EcnMode::kDctcp && cfg_.delayed_ack &&
      unacked_segments_ > 0 &&
      (p.ip.ecn == net::Ecn::kCe) != last_seg_ce_) {
    send_ack(/*syn_ack=*/false, /*fin_ack=*/false);
  }
  const std::uint64_t rcv_nxt_before = rcv_nxt_;
  update_ecn_state(p);
  if (p.payload_bytes > 0) {
    ++stats_.segments_received;
    const sim::TimePs now = ctx_.now();
    if (stats_.first_data_time == sim::kTimeNever) {
      stats_.first_data_time = now;
    }
    stats_.last_data_time = now;

    const std::uint64_t start = p.tcp.seq;
    const std::uint64_t end = start + p.payload_bytes;
    if (end <= rcv_nxt_) {
      ++stats_.duplicate_segments;
    } else {
      const std::uint64_t s = std::max(start, rcv_nxt_);
      last_arrival_start_ = s;
      have_last_arrival_ = true;
      if (s == rcv_nxt_ && ooo_.empty()) {
        // In-order arrival with nothing buffered — the steady-state
        // case.  Advance directly instead of round-tripping the bytes
        // through the reassembly map (whose node churn is a heap
        // allocation per segment, which the hot path forbids).
        stats_.bytes_received += end - rcv_nxt_;
        rcv_nxt_ = end;
      } else {
        // Insert [s, end), then advance rcv_nxt over any now-contiguous
        // run.
        ooo_.insert(s, end);
        if (auto head = ooo_.interval_containing(rcv_nxt_)) {
          stats_.bytes_received += head->end - rcv_nxt_;
          rcv_nxt_ = head->end;
          ooo_.erase_below(rcv_nxt_);
        }
      }
    }
  }

  bool fin_ack = false;
  if (p.tcp.fin) {
    // Accept the FIN only once all payload before it has arrived.
    const std::uint64_t fin_seq = p.tcp.seq + p.payload_bytes;
    if (fin_seq == rcv_nxt_) {
      rcv_nxt_ = fin_seq + 1;  // FIN consumes one sequence number
      fin_received_ = true;
      fin_ack = true;
    } else if (fin_received_ && fin_seq + 1 == rcv_nxt_) {
      fin_ack = true;  // retransmitted FIN
    }
  }

  // Delayed-ACK decision (RFC 5681): in-order data may be coalesced;
  // anything unusual — out-of-order or duplicate arrivals (the sender
  // needs the dupack), FINs — is acknowledged immediately.
  const bool advanced = rcv_nxt_ > rcv_nxt_before;
  if (cfg_.delayed_ack && advanced && ooo_.empty() && !p.tcp.fin) {
    ++unacked_segments_;
    if (unacked_segments_ < cfg_.ack_every) {
      delack_timer_.arm_if_idle(cfg_.delack_timeout);
      return;
    }
  }
  send_ack(/*syn_ack=*/false, fin_ack);
}

void TcpSink::send_ack(bool syn_ack, bool fin_ack) {
  (void)fin_ack;  // the cumulative ack already covers the FIN
  unacked_segments_ = 0;
  delack_timer_.cancel();
  net::Packet ack = make_segment();
  ack.tcp.ack_flag = true;
  ack.tcp.ack = rcv_nxt_;
  ack.tcp.seq = 0;  // the sink sends no data stream of its own
  if (syn_ack) {
    ack.tcp.syn = true;
    ack.tcp.wscale = cfg_.window_scale;
    ack.tcp.sack_permitted = cfg_.sack;
    // RFC 7323: the window field of a SYN/SYN-ACK is never scaled.
    ack.tcp.rwnd_raw = encode_window(cfg_.advertised_window_bytes, 0);
  } else {
    ack.tcp.rwnd_raw =
        encode_window(cfg_.advertised_window_bytes, cfg_.window_scale);
    if (peer_sack_ && !ooo_.empty()) {
      // RFC 2018: first block reports the most recently received data;
      // remaining slots repeat other pending blocks.
      // Blocks are stored relative to the cumulative ack set above.
      constexpr std::size_t kMax = net::TcpHeader::kMaxSackBlocks;
      auto add_block = [&ack](const net::SackBlock& b) {
        for (std::uint8_t i = 0; i < ack.tcp.sack_count; ++i) {
          if (ack.tcp.sack_block(i) == b) return;
        }
        if (ack.tcp.sack_count < kMax) {
          ack.tcp.set_sack(ack.tcp.sack_count, b);
          ++ack.tcp.sack_count;
        }
      };
      if (have_last_arrival_) {
        if (auto b = ooo_.interval_containing(last_arrival_start_)) {
          add_block(*b);
        }
      }
      for (const auto& [s, e] : ooo_) {
        if (ack.tcp.sack_count >= kMax) break;
        add_block(net::SackBlock{s, e});
      }
    }
  }
  switch (cfg_.ecn) {
    case EcnMode::kClassic:
    case EcnMode::kBlind:
      ack.tcp.ece = ece_latched_;
      break;
    case EcnMode::kDctcp:
      ack.tcp.ece = last_seg_ce_;
      break;
    case EcnMode::kNone:
      break;
  }
  net::stamp_checksum(ack);
  ++stats_.acks_sent;
  host_.send(std::move(ack));
}

}  // namespace hwatch::tcp

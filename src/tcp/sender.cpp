#include "tcp/sender.hpp"

#include <algorithm>
#include <cassert>

#include "net/checksum.hpp"
#include "sim/incident_hooks.hpp"
#include "sim/log.hpp"

namespace hwatch::tcp {

TcpSender::TcpSender(net::Network& net, net::Host& host, std::uint16_t port,
                     net::NodeId dst_node, std::uint16_t dst_port,
                     TcpConfig config)
    : net_(net),
      ctx_(net.ctx()),
      host_(host),
      port_(port),
      dst_node_(dst_node),
      dst_port_(dst_port),
      cfg_(config),
      cwnd_hist_(net.ctx().metrics().histogram(
          "tcp.cwnd_bytes",
          sim::Histogram::exponential_bounds(1500, 2, 14))),
      rtt_(config.initial_rto, config.min_rto, config.max_rto),
      rto_timer_(ctx_.scheduler(), [this] { on_rto(); }) {
  cwnd_ = static_cast<double>(cfg_.initial_cwnd_segments) * cfg_.mss;
  ssthresh_ = cfg_.initial_ssthresh_bytes;
  host_.bind(port_, [this](net::Packet&& p) { on_packet(std::move(p)); });
}

TcpSender::~TcpSender() { host_.unbind(port_); }

void TcpSender::start(std::uint64_t total_bytes) {
  assert(state_ == SenderState::kIdle && "start() called twice");
  total_bytes_ = total_bytes;
  stats_.start_time = ctx_.now();
  state_ = SenderState::kSynSent;
  if (ctx_.tracer().enabled()) {
    sim::SpanTracer& tr = ctx_.tracer();
    flow_span_ = tr.begin_span(ctx_.now(), sim::SpanKind::kFlow, 0, 0,
                               total_bytes_);
    auto [hi, lo] = net::flow_key_words(flow_key());
    tr.register_flow(hi, lo, flow_span_);
    handshake_span_ = tr.begin_span(ctx_.now(), sim::SpanKind::kHandshake,
                                    flow_span_, flow_span_);
  }
  send_syn();
}

void TcpSender::send_syn() {
  net::Packet syn;
  syn.uid = ctx_.next_packet_uid();
  syn.ip.src = host_.id();
  syn.ip.dst = dst_node_;
  // SYNs of ECN-capable connections negotiate via ECE+CWR (RFC 3168);
  // the SYN itself is Not-ECT.
  syn.ip.ecn = net::Ecn::kNotEct;
  syn.tcp.src_port = port_;
  syn.tcp.dst_port = dst_port_;
  syn.tcp.seq = 0;
  syn.tcp.syn = true;
  syn.tcp.ece = cfg_.ecn != EcnMode::kNone;
  syn.tcp.cwr = cfg_.ecn != EcnMode::kNone;
  syn.tcp.wscale = cfg_.window_scale;
  syn.tcp.sack_permitted = cfg_.sack;
  syn.tcp.rwnd_raw = encode_window(cfg_.advertised_window_bytes, 0);
  net::stamp_checksum(syn);
  syn.sent_time = ctx_.now();
  syn_sent_at_ = ctx_.now();
  host_.send(std::move(syn));
  arm_rto();
}

void TcpSender::send_pure_ack() {
  net::Packet ack;
  ack.uid = ctx_.next_packet_uid();
  ack.ip.src = host_.id();
  ack.ip.dst = dst_node_;
  ack.ip.ecn = net::Ecn::kNotEct;
  ack.tcp.src_port = port_;
  ack.tcp.dst_port = dst_port_;
  ack.tcp.seq = snd_nxt_;
  ack.tcp.ack = 1;  // acks the peer's SYN
  ack.tcp.ack_flag = true;
  ack.tcp.rwnd_raw =
      encode_window(cfg_.advertised_window_bytes, cfg_.window_scale);
  net::stamp_checksum(ack);
  ack.sent_time = ctx_.now();
  host_.send(std::move(ack));
}

void TcpSender::on_packet(net::Packet&& p) {
  sim::ProfScope prof(ctx_.profiler(), sim::ProfComponent::kTcpSender);
  if (p.kind != net::PacketKind::kTcp || !p.tcp.ack_flag) return;
  if (p.tcp.syn) {
    handle_syn_ack(p);
  } else if (state_ == SenderState::kEstablished) {
    handle_ack(p);
  }
}

void TcpSender::handle_syn_ack(const net::Packet& p) {
  if (state_ != SenderState::kSynSent) {
    // Duplicate SYN-ACK (our handshake ACK was lost or is in flight):
    // re-acknowledge so the peer stops retransmitting.
    if (state_ == SenderState::kEstablished) send_pure_ack();
    return;
  }
  peer_wscale_ = p.tcp.wscale;
  peer_sack_ = p.tcp.sack_permitted && cfg_.sack;
  // RFC 7323: window field in a SYN-ACK is unscaled.
  peer_rwnd_ = decode_window(p.tcp.rwnd_raw, 0);
  snd_una_ = 1;
  snd_nxt_ = 1;
  snd_max_ = 1;
  state_ = SenderState::kEstablished;
  stats_.established_time = ctx_.now();
  if (sim::IncidentSink* inc = ctx_.incidents()) {
    const auto [hi, lo] = net::flow_key_words(flow_key());
    inc->on_flow_established(hi, lo, flow_span_, ctx_.now());
  }
  if (ctx_.tracer().enabled()) {
    sim::SpanTracer& tr = ctx_.tracer();
    tr.end_span(ctx_.now(), handshake_span_, stats_.syn_timeouts);
    handshake_span_ = 0;
    ss_span_ = tr.begin_span(ctx_.now(), sim::SpanKind::kSlowStart,
                             flow_span_, flow_span_);
  }
  if (!syn_retransmitted_) {
    rtt_.add_sample(ctx_.now() - syn_sent_at_);
  }
  rto_timer_.cancel();
  send_pure_ack();
  send_available();
}

void TcpSender::handle_ack(const net::Packet& p) {
  const std::uint64_t prev_rwnd = peer_rwnd_;
  peer_rwnd_ = decode_window(p.tcp.rwnd_raw, peer_wscale_);
  if (p.tcp.ack > snd_max_) return;  // acks data never sent; ignore
  // An ACK may exceed snd_nxt after a go-back-N reset when segments sent
  // before the timeout (or their ACKs) were merely delayed, not lost.
  if (p.tcp.ack > snd_nxt_) {
    snd_nxt_ = p.tcp.ack;
    fin_sent_ = snd_nxt_ > fin_seq();
  }
  if (peer_sack_) {
    for (std::uint8_t i = 0; i < p.tcp.sack_count; ++i) {
      const net::SackBlock b = p.tcp.sack_block(i);
      if (!b.empty() && b.end <= snd_max_ + 1) {
        sacked_.insert(b.start, b.end);
      }
    }
  }
  if (p.tcp.ack > snd_una_) {
    on_new_data_acked(p, p.tcp.ack - snd_una_);
  } else if (p.tcp.ack == snd_una_ && peer_rwnd_ == prev_rwnd) {
    // RFC 5681: a duplicate ACK must carry an unchanged window — pure
    // window updates (e.g. an HWatch deferred-batch grant arriving on
    // an otherwise-duplicate ACK) never count towards fast retransmit.
    on_duplicate_ack(p);
  }
  send_available();
}

void TcpSender::on_new_data_acked(const net::Packet& p, std::uint64_t newly) {
  snd_una_ = p.tcp.ack;
  sacked_.erase_below(snd_una_);
  // Payload-byte accounting: exclude the SYN/FIN sequence slots.
  const std::uint64_t payload_acked =
      std::min(snd_una_, fin_seq()) - std::min(snd_una_ - newly, fin_seq());
  stats_.bytes_acked += payload_acked;

  if (timing_valid_ && snd_una_ >= rtt_seq_) {
    rtt_.add_sample(ctx_.now() - rtt_sent_at_);
    timing_valid_ = false;
  }

  on_ecn_feedback(p, newly);

  limited_transmit_bytes_ = 0;
  if (in_recovery_) {
    if (snd_una_ >= recover_) {
      // Full ACK: leave fast recovery, deflate to ssthresh.
      in_recovery_ = false;
      dup_acks_ = 0;
      retx_hole_high_ = 0;
      cwnd_ = static_cast<double>(ssthresh_);
    } else {
      // Partial ACK (RFC 6582): retransmit the next hole, deflate by the
      // amount acked, re-inflate by one MSS.
      retransmit_next_hole();
      cwnd_ = std::max(cwnd_ - static_cast<double>(newly) + mss(),
                       static_cast<double>(mss()));
    }
  } else {
    dup_acks_ = 0;
    grow_window(newly);
  }
  cwnd_hist_.record(cwnd_);
  if (ctx_.tracer().enabled()) trace_on_ack_progress();
  if (sim::IncidentSink* inc = ctx_.incidents()) {
    const auto [hi, lo] = net::flow_key_words(flow_key());
    inc->on_flow_progress(hi, lo, ctx_.now(), rtt_.srtt());
  }

  if (snd_una_ < snd_nxt_) {
    arm_rto();
  } else {
    rto_timer_.cancel();
  }
  maybe_complete();
}

void TcpSender::trace_on_ack_progress() {
  sim::SpanTracer& tr = ctx_.tracer();
  if (rto_span_ != 0) {
    tr.end_span(ctx_.now(), rto_span_, snd_una_);
    rto_span_ = 0;
  }
  if (recovery_span_ != 0 && !in_recovery_) {
    tr.end_span(ctx_.now(), recovery_span_, snd_una_);
    recovery_span_ = 0;
  }
  if (ss_span_ != 0 && (!in_slow_start() || in_recovery_)) {
    tr.end_span(ctx_.now(), ss_span_,
                static_cast<std::uint64_t>(cwnd_));
    ss_span_ = 0;
  }
}

sim::TimePs TcpSender::now() const { return ctx_.now(); }

std::uint64_t TcpSender::ssthresh_after_loss() {
  return std::max<std::uint64_t>(bytes_in_flight() / 2, 2ull * mss());
}

void TcpSender::grow_window(std::uint64_t newly_acked) {
  // Suppress growth on the ACK that triggered an ECN reduction: the
  // halved window is the target, growth resumes next ACK.
  if (cwr_pending_) return;
  if (cwnd_ < static_cast<double>(ssthresh_)) {
    // Slow start: one MSS per MSS acked (byte counting, capped per ACK).
    cwnd_ += static_cast<double>(
        std::min<std::uint64_t>(newly_acked, 2ull * mss()));
  } else {
    // Congestion avoidance: ~one MSS per RTT.
    cwnd_ += static_cast<double>(mss()) * mss() / cwnd_;
  }
}

void TcpSender::on_ecn_feedback(const net::Packet& ack,
                                std::uint64_t newly_acked) {
  (void)newly_acked;
  if (cfg_.ecn != EcnMode::kClassic) return;  // kBlind/kNone ignore ECE
  if (!ack.tcp.ece) return;
  if (in_recovery_) return;  // loss response already under way
  if (snd_una_ <= ecn_reduce_until_) return;  // one cut per window
  reduce_window(cwnd_ / 2.0);
  ecn_reduce_until_ = snd_nxt_;
  cwr_pending_ = true;
  ++stats_.ecn_reductions;
}

void TcpSender::reduce_window(double new_cwnd_bytes) {
  const double floor = 2.0 * mss();
  cwnd_ = std::max(new_cwnd_bytes, floor);
  ssthresh_ = static_cast<std::uint64_t>(std::max(cwnd_, floor));
}

void TcpSender::on_duplicate_ack(const net::Packet& p) {
  (void)p;
  if (bytes_in_flight() == 0) return;  // window update, not a real dupack
  if (in_recovery_) {
    cwnd_ += mss();  // inflation: one segment left the network
    // SACK: the blocks on this dupack may expose further holes below
    // the recovery point; retransmit them as the window allows instead
    // of waiting one partial-ACK round trip each (the RFC 6675 gain).
    if (peer_sack_) retransmit_next_hole();
    return;
  }
  ++dup_acks_;
  if (dup_acks_ < cfg_.dupack_threshold) {
    // RFC 3042 limited transmit: the first two dupacks each clock out
    // one new segment, building the pipeline a short flow needs to
    // reach the fast-retransmit threshold at all.
    if (cfg_.limited_transmit && dup_acks_ <= 2) {
      limited_transmit_bytes_ += mss();
    }
    return;
  }
  // Fast retransmit + NewReno-style fast recovery (the ssthresh rule is
  // flavour-specific).
  ssthresh_ = ssthresh_after_loss();
  recover_ = snd_nxt_;
  in_recovery_ = true;
  retx_hole_high_ = 0;
  ++stats_.fast_retransmits;
  if (ctx_.tracer().enabled()) {
    sim::SpanTracer& tr = ctx_.tracer();
    // End slow start before opening recovery: sibling spans, and Chrome
    // B/E pairs must nest as a stack per flow.
    if (ss_span_ != 0) {
      tr.end_span(ctx_.now(), ss_span_, static_cast<std::uint64_t>(cwnd_));
      ss_span_ = 0;
    }
    recovery_span_ = tr.begin_span(ctx_.now(), sim::SpanKind::kRecovery,
                                   flow_span_, flow_span_, snd_una_);
  }
  retransmit_next_hole();
  cwnd_ = static_cast<double>(ssthresh_) + 3.0 * mss();
  arm_rto();
}

bool TcpSender::retransmit_next_hole() {
  std::uint64_t seq = snd_una_;
  if (peer_sack_) {
    seq = sacked_.next_uncovered(std::max(snd_una_, retx_hole_high_));
    if (seq >= recover_ || seq >= snd_nxt_) return false;  // no hole left
    // RFC 6675 IsLost: a hole is only presumed lost once at least
    // DupThresh segments' worth of data has been SACKed above it;
    // otherwise its segment may simply still be in flight.  The very
    // first hole (snd_una) is exempt — the dupack threshold itself
    // established its loss.
    if (seq > snd_una_ &&
        sacked_.covered_above(seq) <
            std::uint64_t{cfg_.dupack_threshold} * mss()) {
      return false;
    }
  }
  emit_segment(seq, /*retransmission=*/true);
  // Advance past what was just sent (emit_segment bounds the payload by
  // the gap, so one call covers at most one hole fragment).
  const std::uint64_t remaining = fin_seq() >= seq ? fin_seq() - seq : 0;
  std::uint64_t len = std::min<std::uint64_t>(mss(), remaining);
  if (len == 0) len = 1;  // the FIN slot
  if (peer_sack_) {
    len = std::min<std::uint64_t>(len,
                                  sacked_.gap_end(seq, fin_seq() + 1) - seq);
  }
  retx_hole_high_ = std::max(retx_hole_high_, seq + len);
  return true;
}

void TcpSender::send_available() {
  if (state_ != SenderState::kEstablished) return;
  while (true) {
    const std::uint64_t cwnd_bytes =
        static_cast<std::uint64_t>(cwnd_) + limited_transmit_bytes_;
    // The receive window can be throttled hard by HWatch; keep a 1-MSS
    // floor when nothing is in flight so the connection always probes
    // forward (persist behaviour) instead of deadlocking.
    std::uint64_t wnd = std::min<std::uint64_t>(cwnd_bytes, peer_rwnd_);
    if (wnd < mss() && bytes_in_flight() == 0) wnd = mss();
    if (bytes_in_flight() >= wnd) return;
    const std::uint64_t usable = wnd - bytes_in_flight();

    if (snd_nxt_ > fin_seq()) return;  // FIN already in flight
    if (snd_nxt_ == fin_seq()) {
      if (total_bytes_ >= kUnlimited) return;  // long-lived: never ends
      emit_segment(snd_nxt_, /*retransmission=*/false);
      return;
    }
    const std::uint64_t remaining = fin_seq() - snd_nxt_;
    const std::uint64_t seg = std::min<std::uint64_t>(mss(), remaining);
    // Sender-side SWS avoidance: wait for a full-MSS opening unless this
    // is the final (short) segment.
    if (usable < seg) return;
    emit_segment(snd_nxt_, /*retransmission=*/false);
  }
}

void TcpSender::emit_segment(std::uint64_t seq, bool retransmission) {
  net::Packet p;
  p.uid = ctx_.next_packet_uid();
  p.ip.src = host_.id();
  p.ip.dst = dst_node_;
  p.tcp.src_port = port_;
  p.tcp.dst_port = dst_port_;
  p.tcp.seq = seq;
  p.tcp.ack_flag = true;  // established-state segments carry an ACK
  p.tcp.ack = 1;
  p.tcp.rwnd_raw =
      encode_window(cfg_.advertised_window_bytes, cfg_.window_scale);

  if (seq == fin_seq()) {
    p.tcp.fin = true;
    p.payload_bytes = 0;
    p.ip.ecn = net::Ecn::kNotEct;
    fin_sent_ = true;
  } else {
    const std::uint64_t remaining = fin_seq() - seq;
    std::uint64_t len = std::min<std::uint64_t>(mss(), remaining);
    if (retransmission && peer_sack_) {
      // Don't re-send bytes the receiver already SACKed past the hole.
      len = std::min(len, sacked_.gap_end(seq, fin_seq()) - seq);
    }
    p.payload_bytes = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        len, 1));
    p.ip.ecn =
        cfg_.ecn == EcnMode::kNone ? net::Ecn::kNotEct : net::Ecn::kEct0;
    if (cwr_pending_ && !retransmission) {
      p.tcp.cwr = true;
      cwr_pending_ = false;
    }
  }
  net::stamp_checksum(p);
  p.sent_time = ctx_.now();

  const std::uint64_t end = seq + (p.tcp.fin ? 1 : p.payload_bytes);
  if (!retransmission) {
    assert(seq == snd_nxt_);
    snd_nxt_ = end;
    if (end > snd_max_) snd_max_ = end;
    if (!timing_valid_) {
      timing_valid_ = true;
      rtt_seq_ = end;
      rtt_sent_at_ = ctx_.now();
    }
  } else {
    ++stats_.retransmits;
    // Karn: samples covering retransmitted data are invalid.
    if (timing_valid_ && rtt_seq_ > seq) timing_valid_ = false;
    if (sim::IncidentSink* inc = ctx_.incidents()) {
      const auto [hi, lo] = net::flow_key_words(flow_key());
      inc->on_retransmit(hi, lo, ctx_.now());
    }
  }
  if (p.payload_bytes > 0) ++stats_.segments_sent;
  arm_rto();
  host_.send(std::move(p));
}

void TcpSender::arm_rto() {
  if (ctx_.tracer().enabled()) rto_armed_at_ = ctx_.now();
  rto_timer_.arm(rtt_.rto());
}

void TcpSender::on_rto() {
  if (state_ == SenderState::kSynSent) {
    syn_retransmitted_ = true;
    ++stats_.syn_timeouts;
    rtt_.backoff();
    send_syn();
    return;
  }
  if (state_ != SenderState::kEstablished) return;
  ++stats_.timeouts;
  if (sim::IncidentSink* inc = ctx_.incidents()) {
    const auto [hi, lo] = net::flow_key_words(flow_key());
    inc->on_rto(hi, lo, ctx_.now());
  }
  ctx_.log().msg(sim::LogLevel::kDebug, "RTO flow ", port_, " snd_una=",
               snd_una_, " snd_nxt=", snd_nxt_);
  if (ctx_.tracer().enabled()) {
    sim::SpanTracer& tr = ctx_.tracer();
    if (recovery_span_ != 0) {
      tr.end_span(ctx_.now(), recovery_span_, snd_una_);
      recovery_span_ = 0;
    }
    if (ss_span_ != 0) {
      tr.end_span(ctx_.now(), ss_span_, static_cast<std::uint64_t>(cwnd_));
      ss_span_ = 0;
    }
    // The whole interval since the data was last clocked out counts as
    // retransmission wait: nothing moved until this timer fired.
    tr.add_latency(flow_span_, sim::LatencyComponent::kRetxWait,
                   ctx_.now() - rto_armed_at_);
    if (rto_span_ == 0) {
      rto_span_ = tr.begin_span(ctx_.now(), sim::SpanKind::kRto, flow_span_,
                                flow_span_, snd_una_);
    }
  }
  ssthresh_ = ssthresh_after_loss();
  cwnd_ = mss();
  in_recovery_ = false;
  dup_acks_ = 0;
  timing_valid_ = false;
  cwr_pending_ = false;
  limited_transmit_bytes_ = 0;
  retx_hole_high_ = 0;
  // RFC 2018: discard the scoreboard on RTO (the receiver may renege).
  sacked_.clear();
  // Go-back-N: everything past snd_una is presumed lost.
  snd_nxt_ = snd_una_;
  fin_sent_ = snd_nxt_ > fin_seq();
  rtt_.backoff();
  send_available();
  arm_rto();
}

void TcpSender::maybe_complete() {
  if (state_ != SenderState::kEstablished) return;
  if (total_bytes_ >= kUnlimited) return;
  if (snd_una_ == fin_seq() + 1) {
    state_ = SenderState::kClosed;
    stats_.complete_time = ctx_.now();
    rto_timer_.cancel();
    if (sim::IncidentSink* inc = ctx_.incidents()) {
      const auto [hi, lo] = net::flow_key_words(flow_key());
      inc->on_flow_complete(hi, lo, ctx_.now());
    }
    if (ctx_.tracer().enabled() && flow_span_ != 0) {
      sim::SpanTracer& tr = ctx_.tracer();
      // Children first, then the flow span, to keep B/E pairs a stack.
      if (rto_span_ != 0) tr.end_span(ctx_.now(), rto_span_, snd_una_);
      if (recovery_span_ != 0) tr.end_span(ctx_.now(), recovery_span_,
                                           snd_una_);
      if (ss_span_ != 0) {
        tr.end_span(ctx_.now(), ss_span_, static_cast<std::uint64_t>(cwnd_));
      }
      tr.end_span(ctx_.now(), flow_span_, stats_.bytes_acked,
                  stats_.retransmits);
      flow_span_ = handshake_span_ = ss_span_ = recovery_span_ = rto_span_ =
          0;
    }
    if (on_complete_) on_complete_(*this);
  }
}

}  // namespace hwatch::tcp

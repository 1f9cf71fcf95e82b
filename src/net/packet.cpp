#include "net/packet.hpp"

#include <sstream>
#include <stdexcept>

namespace hwatch::net {

void TcpHeader::set_sack(std::size_t i, const SackBlock& b) {
  constexpr std::uint64_t kMaxOffset = UINT32_MAX;
  if (b.start < ack || b.end < ack || b.start - ack > kMaxOffset ||
      b.end - ack > kMaxOffset) {
    throw std::out_of_range("SACK block [" + std::to_string(b.start) + ", " +
                            std::to_string(b.end) +
                            ") is not within 2^32 above ack " +
                            std::to_string(ack));
  }
  sack_.at(i) = {static_cast<std::uint32_t>(b.start - ack),
                 static_cast<std::uint32_t>(b.end - ack)};
}

std::string Packet::describe() const {
  std::ostringstream os;
  if (kind == PacketKind::kProbe) {
    os << "PROBE " << ip.src << "->" << ip.dst << " train="
       << probe_train_id;
  } else {
    os << (tcp.syn ? (tcp.ack_flag ? "SYNACK" : "SYN")
           : tcp.fin ? "FIN"
           : payload_bytes > 0 ? "DATA"
                               : "ACK");
    os << " " << ip.src << ":" << tcp.src_port << "->" << ip.dst << ":"
       << tcp.dst_port << " seq=" << tcp.seq << " ack=" << tcp.ack
       << " len=" << payload_bytes << " rwnd=" << tcp.rwnd_raw;
    if (tcp.ece) os << " ECE";
    if (tcp.cwr) os << " CWR";
  }
  if (ip.ecn == Ecn::kCe) os << " CE";
  return os.str();
}

}  // namespace hwatch::net

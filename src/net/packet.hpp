// Packet model.
//
// Packets carry an Ethernet+IP framing model and a TCP header with the
// exact fields HWatch manipulates: the 16-bit receive-window field, the
// window-scale shift negotiated in SYN segments, the urgent pointer the
// paper earmarks as a side channel, ECN codepoints and the checksum.
// Sequence/ack numbers count bytes in 64 bits (no wraparound handling —
// a documented simplification; flows here are far below 2^32 anyway, and
// 64-bit arithmetic keeps invariants assertable).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "sim/time.hpp"

namespace hwatch::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// Framing constants.  A full data segment is 1500 bytes on the wire,
/// matching the paper's packet size; a Probe1 is 38 bytes (ETH+IP, empty).
inline constexpr std::uint32_t kEthHeaderBytes = 18;
inline constexpr std::uint32_t kIpHeaderBytes = 20;
inline constexpr std::uint32_t kTcpHeaderBytes = 20;
inline constexpr std::uint32_t kTcpFrameOverhead =
    kEthHeaderBytes + kIpHeaderBytes + kTcpHeaderBytes;  // 58
inline constexpr std::uint32_t kProbeFrameBytes =
    kEthHeaderBytes + kIpHeaderBytes;  // 38, "Probe1"
inline constexpr std::uint32_t kDefaultMss = 1442;  // 1442 + 58 = 1500

/// IP ECN codepoints (RFC 3168).
enum class Ecn : std::uint8_t {
  kNotEct = 0,  // not ECN-capable transport
  kEct1 = 1,
  kEct0 = 2,
  kCe = 3,  // congestion experienced
};

inline bool ecn_capable(Ecn e) { return e != Ecn::kNotEct; }

struct IpHeader {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Ecn ecn = Ecn::kNotEct;
  std::uint8_t dscp = 0;
  std::uint8_t ttl = 64;
};

/// One SACK block: received bytes [start, end).
struct SackBlock {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  bool empty() const { return start >= end; }
  friend bool operator==(const SackBlock&, const SackBlock&) = default;
};

/// Fields are ordered by size and the flags are one bit each, so the
/// header is 56 bytes; DESIGN.md ("Memory model of the hot path") has
/// the offset table.
struct TcpHeader {
  /// Most SACK blocks one segment carries (RFC 2018 with timestamps).
  static constexpr std::size_t kMaxSackBlocks = 3;

  std::uint64_t seq = 0;
  std::uint64_t ack = 0;

  /// SACK option (RFC 2018): up to 3 blocks of received-but-unacked
  /// data, most recent first; sack_count = 0 means no option present.
  /// A block is stored as 32-bit offsets above `ack`, so set `ack`
  /// before adding blocks; set_sack() throws std::out_of_range for a
  /// block below `ack` or 2^32 or more above it.
  SackBlock sack_block(std::size_t i) const {
    const SackOffsets& o = sack_.at(i);
    return {ack + o.start, ack + o.end};
  }
  void set_sack(std::size_t i, const SackBlock& b);

 private:
  struct SackOffsets {
    std::uint32_t start = 0;
    std::uint32_t end = 0;
  };
  std::array<SackOffsets, kMaxSackBlocks> sack_{};

 public:
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t urgent_ptr = 0;
  /// Raw 16-bit window field; effective window = rwnd_raw << peer's
  /// negotiated shift (see wscale).
  std::uint16_t rwnd_raw = 0;
  std::uint16_t checksum = 0;
  /// Window-scale option value; meaningful only on SYN / SYN-ACK.
  std::uint8_t wscale = 0;
  std::uint8_t sack_count = 0;
  bool syn : 1 = false;
  bool ack_flag : 1 = false;
  bool fin : 1 = false;
  bool rst : 1 = false;
  bool ece : 1 = false;  // ECN-echo
  bool cwr : 1 = false;  // congestion window reduced
  bool urg : 1 = false;
  /// On SYN/SYN-ACK, advertises SACK support.
  bool sack_permitted : 1 = false;
};

enum class PacketKind : std::uint8_t {
  kTcp = 0,
  kProbe = 1,  // raw-IP hypervisor probe (HWatch Probe1)
};

/// Every qdisc ring slot, link flight-train entry, cross-shard inbox
/// item and large scheduler callback holds one of these by value, so
/// the fields are ordered by size to keep it at 104 bytes.
struct Packet {
  std::uint64_t uid = 0;  // unique per simulation, for tracing

  // --- bookkeeping (not on the wire) ---
  sim::TimePs sent_time = 0;     // when the transport emitted it
  sim::TimePs enqueue_time = 0;  // last qdisc admission (queue-delay stats)

  TcpHeader tcp;
  IpHeader ip;
  std::uint32_t payload_bytes = 0;
  std::uint32_t probe_train_id = 0;  // which probe train this belongs to
  PacketKind kind = PacketKind::kTcp;

  /// Total frame size on the wire.
  std::uint32_t size_bytes() const {
    return kind == PacketKind::kProbe ? kProbeFrameBytes + payload_bytes
                                      : kTcpFrameOverhead + payload_bytes;
  }

  bool is_data() const {
    return kind == PacketKind::kTcp && payload_bytes > 0;
  }
  bool is_pure_ack() const {
    return kind == PacketKind::kTcp && tcp.ack_flag && payload_bytes == 0 &&
           !tcp.syn && !tcp.fin;
  }
  bool is_syn() const { return kind == PacketKind::kTcp && tcp.syn; }

  /// Short human-readable form for traces.
  std::string describe() const;
};

/// 4-tuple flow identity, the key of the HWatch hypervisor flow table.
struct FlowKey {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;

  /// Key of the reverse direction (ACK path).
  FlowKey reversed() const { return FlowKey{dst, src, dst_port, src_port}; }
};

/// Flow key of a packet as seen on the wire.
inline FlowKey flow_key_of(const Packet& p) {
  return FlowKey{p.ip.src, p.ip.dst, p.tcp.src_port, p.tcp.dst_port};
}

/// The flow key packed into two words — the layer-neutral identity the
/// sim-level SpanTracer keys its flow registry on (sim can't see net
/// types).  Lossless: hi = src<<32|dst, lo = sport<<16|dport.
inline std::pair<std::uint64_t, std::uint64_t> flow_key_words(
    const FlowKey& k) {
  return {(std::uint64_t{k.src} << 32) | k.dst,
          (std::uint64_t{k.src_port} << 16) | k.dst_port};
}

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const {
    std::uint64_t h = (std::uint64_t{k.src} << 32) | k.dst;
    h ^= (std::uint64_t{k.src_port} << 16 | k.dst_port) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
  }
};

}  // namespace hwatch::net

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "net/checksum.hpp"
#include "net/packet.hpp"

namespace hwatch::net {
namespace {

Packet sample_packet() {
  Packet p;
  p.ip.src = 3;
  p.ip.dst = 9;
  p.ip.ecn = Ecn::kEct0;
  p.tcp.src_port = 1024;
  p.tcp.dst_port = 80;
  p.tcp.seq = 123456;
  p.tcp.ack = 789;
  p.tcp.ack_flag = true;
  p.tcp.rwnd_raw = 4321;
  p.tcp.wscale = 6;
  p.payload_bytes = 1442;
  return p;
}

TEST(PacketTest, FrameSizesMatchPaper) {
  Packet data = sample_packet();
  EXPECT_EQ(data.size_bytes(), 1500u);  // full segment = 1500 B
  Packet ack = sample_packet();
  ack.payload_bytes = 0;
  EXPECT_EQ(ack.size_bytes(), kTcpFrameOverhead);
  Packet probe;
  probe.kind = PacketKind::kProbe;
  EXPECT_EQ(probe.size_bytes(), 38u);  // Probe1 = ETH + IP headers only
}

TEST(PacketTest, Classification) {
  Packet p = sample_packet();
  EXPECT_TRUE(p.is_data());
  EXPECT_FALSE(p.is_pure_ack());
  p.payload_bytes = 0;
  EXPECT_TRUE(p.is_pure_ack());
  p.tcp.syn = true;
  EXPECT_FALSE(p.is_pure_ack());
  EXPECT_TRUE(p.is_syn());
  Packet probe;
  probe.kind = PacketKind::kProbe;
  EXPECT_FALSE(probe.is_data());
}

TEST(PacketTest, EcnCapability) {
  EXPECT_FALSE(ecn_capable(Ecn::kNotEct));
  EXPECT_TRUE(ecn_capable(Ecn::kEct0));
  EXPECT_TRUE(ecn_capable(Ecn::kEct1));
  EXPECT_TRUE(ecn_capable(Ecn::kCe));
}

TEST(PacketTest, DescribeNamesSegmentTypes) {
  Packet p = sample_packet();
  EXPECT_NE(p.describe().find("DATA"), std::string::npos);
  p.payload_bytes = 0;
  EXPECT_NE(p.describe().find("ACK"), std::string::npos);
  p.tcp.syn = true;
  EXPECT_NE(p.describe().find("SYNACK"), std::string::npos);
  p.tcp.ack_flag = false;
  EXPECT_NE(p.describe().find("SYN"), std::string::npos);
  Packet probe;
  probe.kind = PacketKind::kProbe;
  EXPECT_NE(probe.describe().find("PROBE"), std::string::npos);
}

// SACK blocks ride as 32-bit offsets above the cumulative ack.
TEST(PacketSackTest, RoundTripsAtOffsetBoundaries) {
  constexpr std::uint64_t kMaxOffset = (std::uint64_t{1} << 32) - 1;
  TcpHeader t;
  t.ack = std::uint64_t{5} << 32;  // above 2^32: offsets, not truncation
  const SackBlock blocks[TcpHeader::kMaxSackBlocks] = {
      {t.ack, t.ack + 1},
      {t.ack + 1, t.ack + kMaxOffset},
      {t.ack + kMaxOffset, t.ack + kMaxOffset},
  };
  for (std::size_t i = 0; i < TcpHeader::kMaxSackBlocks; ++i) {
    t.set_sack(i, blocks[i]);
  }
  for (std::size_t i = 0; i < TcpHeader::kMaxSackBlocks; ++i) {
    EXPECT_EQ(t.sack_block(i), blocks[i]) << "block " << i;
  }
}

TEST(PacketSackTest, RejectsBlocksOutsideTheOffsetRange) {
  TcpHeader t;
  t.ack = 1000;
  EXPECT_THROW(t.set_sack(0, {999, 2000}), std::out_of_range);
  EXPECT_THROW(t.set_sack(0, {1000, 999}), std::out_of_range);
  const std::uint64_t too_far = t.ack + (std::uint64_t{1} << 32);
  EXPECT_THROW(t.set_sack(0, {1000, too_far}), std::out_of_range);
  EXPECT_THROW(t.set_sack(0, {too_far, too_far + 1}), std::out_of_range);
  // A rejected block leaves the slot untouched.
  EXPECT_EQ(t.sack_block(0), (SackBlock{1000, 1000}));
  EXPECT_THROW(t.set_sack(TcpHeader::kMaxSackBlocks, {1000, 1001}),
               std::out_of_range);
  EXPECT_THROW(t.sack_block(TcpHeader::kMaxSackBlocks), std::out_of_range);
}

TEST(FlowKeyTest, ReversedSwapsEndpoints) {
  FlowKey k{1, 2, 100, 200};
  FlowKey r = k.reversed();
  EXPECT_EQ(r.src, 2u);
  EXPECT_EQ(r.dst, 1u);
  EXPECT_EQ(r.src_port, 200);
  EXPECT_EQ(r.dst_port, 100);
  EXPECT_EQ(r.reversed(), k);
}

TEST(FlowKeyTest, HashDistinguishesPortsAndNodes) {
  FlowKeyHash h;
  FlowKey a{1, 2, 100, 200};
  EXPECT_NE(h(a), h(FlowKey{1, 2, 101, 200}));
  EXPECT_NE(h(a), h(FlowKey{1, 3, 100, 200}));
  EXPECT_NE(h(a), h(a.reversed()));
  EXPECT_EQ(h(a), h(FlowKey{1, 2, 100, 200}));
}

TEST(ChecksumTest, StampAndVerifyRoundTrip) {
  Packet p = sample_packet();
  stamp_checksum(p);
  EXPECT_TRUE(verify_checksum(p));
}

TEST(ChecksumTest, DetectsFieldCorruption) {
  Packet p = sample_packet();
  stamp_checksum(p);
  p.tcp.rwnd_raw ^= 0x0010;
  EXPECT_FALSE(verify_checksum(p));
}

TEST(ChecksumTest, DetectsSeqCorruption) {
  Packet p = sample_packet();
  stamp_checksum(p);
  p.tcp.seq += 1;
  EXPECT_FALSE(verify_checksum(p));
}

TEST(ChecksumTest, DetectsFlagFlip) {
  Packet p = sample_packet();
  stamp_checksum(p);
  p.tcp.ece = !p.tcp.ece;
  EXPECT_FALSE(verify_checksum(p));
}

TEST(ChecksumTest, IncrementalAdjustMatchesRecompute) {
  // This is the exact operation the HWatch shim performs when it
  // rewrites the receive window in flight.
  Packet p = sample_packet();
  stamp_checksum(p);
  const std::uint16_t old_raw = p.tcp.rwnd_raw;
  const std::uint16_t new_raw = 17;
  p.tcp.checksum = checksum_adjust(p.tcp.checksum, old_raw, new_raw);
  p.tcp.rwnd_raw = new_raw;
  EXPECT_TRUE(verify_checksum(p));
  EXPECT_EQ(p.tcp.checksum, tcp_checksum(p));
}

TEST(ChecksumTest, IncrementalAdjustManyValues) {
  Packet p = sample_packet();
  stamp_checksum(p);
  for (std::uint32_t v : {0u, 1u, 255u, 4097u, 65534u, 65535u}) {
    p.tcp.checksum = checksum_adjust(p.tcp.checksum, p.tcp.rwnd_raw,
                                     static_cast<std::uint16_t>(v));
    p.tcp.rwnd_raw = static_cast<std::uint16_t>(v);
    EXPECT_TRUE(verify_checksum(p)) << "rwnd=" << v;
  }
}

TEST(ChecksumTest, ChecksumFieldItselfExcluded) {
  Packet p = sample_packet();
  const std::uint16_t c1 = tcp_checksum(p);
  p.tcp.checksum = 0xABCD;  // garbage in the field must not matter
  EXPECT_EQ(tcp_checksum(p), c1);
}

}  // namespace
}  // namespace hwatch::net

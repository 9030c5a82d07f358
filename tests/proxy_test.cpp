// Tests for the proxy rewrite algebra (§2.4): capture rules, the
// src<-original-dst substitution, end-to-end query/response address flow,
// raw-packet checksum fixing.
#include <gtest/gtest.h>

#include "proxy/proxy.hpp"
#include "trace/pcap.hpp"
#include "util/queue.hpp"

namespace ldp::proxy {
namespace {

const IpAddr kRecursive{Ip4{10, 0, 0, 2}};
const IpAddr kMeta{Ip4{10, 0, 0, 3}};
const IpAddr kComServer{Ip4{192, 5, 6, 30}};  // a.gtld-servers.net

Datagram query_pkt() {
  Datagram pkt;
  pkt.src = Endpoint{kRecursive, 42001};
  pkt.dst = Endpoint{kComServer, 53};
  pkt.payload = {0xde, 0xad};
  return pkt;
}

TEST(ServerProxy, RecursiveProxyRewritesQueries) {
  ServerProxy proxy(ServerProxy::Role::Recursive, kMeta);
  Datagram pkt = query_pkt();
  ASSERT_TRUE(proxy.rewrite(pkt));
  // src address becomes the OQDA (the .com server's public address); the
  // ephemeral port survives; dst becomes the meta server.
  EXPECT_TRUE(pkt.src.addr == kComServer);
  EXPECT_EQ(pkt.src.port, 42001);
  EXPECT_TRUE(pkt.dst.addr == kMeta);
  EXPECT_EQ(pkt.dst.port, 53);
  EXPECT_EQ(proxy.rewritten(), 1u);
}

TEST(ServerProxy, RecursiveProxyIgnoresResponses) {
  ServerProxy proxy(ServerProxy::Role::Recursive, kMeta);
  Datagram pkt;
  pkt.src = Endpoint{kComServer, 53};
  pkt.dst = Endpoint{kRecursive, 42001};
  EXPECT_FALSE(proxy.captures(pkt));
  EXPECT_FALSE(proxy.rewrite(pkt));
  EXPECT_EQ(proxy.rewritten(), 0u);
}

TEST(ServerProxy, AuthoritativeProxyRewritesResponses) {
  ServerProxy proxy(ServerProxy::Role::Authoritative, kRecursive);
  // Meta server answered: its reply goes to the OQDA it saw as query source.
  Datagram pkt;
  pkt.src = Endpoint{kMeta, 53};
  pkt.dst = Endpoint{kComServer, 42001};
  ASSERT_TRUE(proxy.rewrite(pkt));
  // Reply now appears to come from the .com server, heading to the recursive.
  EXPECT_TRUE(pkt.src.addr == kComServer);
  EXPECT_EQ(pkt.src.port, 53);
  EXPECT_TRUE(pkt.dst.addr == kRecursive);
  EXPECT_EQ(pkt.dst.port, 42001);
}

TEST(ServerProxy, FullRoundTripRestoresIllusion) {
  // Chain both proxies: the recursive must see a reply whose source matches
  // its original query destination and whose dst port matches its ephemeral
  // port — that is the §2.4 correctness condition.
  ServerProxy rec_proxy(ServerProxy::Role::Recursive, kMeta);
  ServerProxy aut_proxy(ServerProxy::Role::Authoritative, kRecursive);

  Datagram q = query_pkt();
  Endpoint original_dst = q.dst;
  Endpoint original_src = q.src;
  ASSERT_TRUE(rec_proxy.rewrite(q));

  // Meta server's reply swaps src/dst of the query as any UDP server does.
  Datagram r;
  r.src = Endpoint{kMeta, q.dst.port};
  r.dst = q.src;
  ASSERT_TRUE(aut_proxy.rewrite(r));

  EXPECT_TRUE(r.src.addr == original_dst.addr);  // from the "real" server
  EXPECT_EQ(r.src.port, original_dst.port);
  EXPECT_TRUE(r.dst.addr == original_src.addr);  // back to the recursive
  EXPECT_EQ(r.dst.port, original_src.port);
}

TEST(ServerProxy, ZoneSelectorSurvivesForDifferentLevels) {
  // Queries to different hierarchy levels arrive at the meta server with
  // different source addresses — the split-horizon selector.
  ServerProxy rec_proxy(ServerProxy::Role::Recursive, kMeta);
  const IpAddr root{Ip4{198, 41, 0, 4}};
  const IpAddr google_ns{Ip4{216, 239, 32, 10}};

  for (const IpAddr& level : {root, kComServer, google_ns}) {
    Datagram q;
    q.src = Endpoint{kRecursive, 42001};
    q.dst = Endpoint{level, 53};
    ASSERT_TRUE(rec_proxy.rewrite(q));
    EXPECT_TRUE(q.src.addr == level);
  }
}

TEST(RawRewrite, FixesChecksums) {
  // Build a real IPv4/UDP packet via the pcap writer, rewrite it, and check
  // both checksums still verify.
  trace::PcapWriter w;
  dns::Message msg = dns::Message::make_query(1, *dns::Name::parse("x.example"),
                                              dns::RRType::A);
  auto rec = trace::make_query_record(0, Endpoint{IpAddr{Ip4{10, 0, 0, 2}}, 42001},
                                      Endpoint{IpAddr{Ip4{192, 5, 6, 30}}, 53}, msg);
  w.add(rec);
  auto pcap = std::move(w).take();
  // Packet starts after the 24-byte pcap global header + 16-byte record hdr.
  std::vector<uint8_t> packet(pcap.begin() + 40, pcap.end());

  ASSERT_TRUE(rewrite_raw_ipv4_udp(packet, Ip4{192, 5, 6, 30}, Ip4{10, 0, 0, 3}).ok());

  // IPv4 header checksum verifies (sums to zero).
  EXPECT_EQ(trace::inet_checksum(std::span<const uint8_t>(packet.data(), 20)), 0);
  // Addresses rewritten.
  EXPECT_EQ(packet[12], 192);
  EXPECT_EQ(packet[16], 10);
  // UDP checksum verifies over the pseudo-header.
  ByteWriter pseudo;
  pseudo.u32(Ip4{192, 5, 6, 30}.value());
  pseudo.u32(Ip4{10, 0, 0, 3}.value());
  pseudo.u8(0);
  pseudo.u8(17);
  pseudo.u16(static_cast<uint16_t>(packet.size() - 20));
  pseudo.bytes(std::span<const uint8_t>(packet.data() + 20, packet.size() - 20));
  uint16_t check = trace::inet_checksum(pseudo.data());
  EXPECT_TRUE(check == 0 || check == 0xffff);
}

TEST(RawRewrite, RejectsNonUdpAndShortPackets) {
  std::vector<uint8_t> tiny(10, 0);
  EXPECT_FALSE(rewrite_raw_ipv4_udp(tiny, Ip4{1, 1, 1, 1}, Ip4{2, 2, 2, 2}).ok());

  std::vector<uint8_t> tcp(40, 0);
  tcp[0] = 0x45;
  tcp[9] = 6;  // TCP
  EXPECT_FALSE(rewrite_raw_ipv4_udp(tcp, Ip4{1, 1, 1, 1}, Ip4{2, 2, 2, 2}).ok());
}

TEST(BoundedQueueT, CloseDrainsThenStops) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

}  // namespace
}  // namespace ldp::proxy

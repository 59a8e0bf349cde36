// RED marking tests: the EWMA/probability mechanics and DCTCP-over-RED
// end to end.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "dctcpp/core/protocol.h"
#include "dctcpp/net/queue.h"
#include "dctcpp/net/topology.h"
#include "dctcpp/sim/simulator.h"
#include "dctcpp/tcp/socket.h"

namespace dctcpp {
namespace {

using namespace time_literals;

Packet EctPacket(Bytes payload = 1460) {
  Packet pkt;
  pkt.payload = payload;
  pkt.ecn = Ecn::kEct;
  return pkt;
}

TEST(RedQueueTest, NoMarkingBelowMinThreshold) {
  Rng rng(1);
  DropTailEcnQueue q(1 * kMiB, 0);
  RedConfig red;
  red.min_th = 64 * 1024;
  red.max_th = 128 * 1024;
  red.weight = 1.0;  // average == instantaneous, for determinism
  q.EnableRed(red, &rng);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.Enqueue(EctPacket()));
  EXPECT_EQ(q.stats().marked, 0u);
}

TEST(RedQueueTest, AlwaysMarksAboveMaxThreshold) {
  Rng rng(1);
  DropTailEcnQueue q(4 * kMiB, 0);
  RedConfig red;
  red.min_th = 2 * 1514;
  red.max_th = 4 * 1514;
  red.weight = 1.0;
  q.EnableRed(red, &rng);
  for (int i = 0; i < 10; ++i) q.Enqueue(EctPacket());
  // Occupancy passed max_th after 4 packets; everything beyond is marked.
  std::uint64_t marked = q.stats().marked;
  EXPECT_GE(marked, 5u);
  // The first packets (below min_th) are never marked.
  EXPECT_EQ(q.Dequeue()->ecn, Ecn::kEct);
}

TEST(RedQueueTest, ProbabilisticBandMarksExpectedFraction) {
  Rng rng(7);
  DropTailEcnQueue q(16 * kMiB, 0);
  RedConfig red;
  red.min_th = 1;
  red.max_th = 10 * 1514;
  red.max_p = 0.5;
  red.weight = 1.0;  // average == occupancy at arrival
  q.EnableRed(red, &rng);
  // Standing queue of 5 packets: every arrival sees the average mid-band,
  // so the marking probability is ~0.5 * (7570/15140) = 0.25.
  for (int i = 0; i < 5; ++i) q.Enqueue(EctPacket());
  const std::uint64_t baseline = q.stats().marked;
  constexpr int kArrivals = 4000;
  for (int i = 0; i < kArrivals; ++i) {
    q.Enqueue(EctPacket());
    q.Dequeue();
  }
  const auto marked = static_cast<double>(q.stats().marked - baseline);
  EXPECT_NEAR(marked / kArrivals, 0.25, 0.05);
}

TEST(RedQueueTest, AverageTracksOccupancySlowlyWithSmallWeight) {
  Rng rng(1);
  DropTailEcnQueue q(4 * kMiB, 0);
  RedConfig red;
  red.weight = 0.002;
  q.EnableRed(red, &rng);
  for (int i = 0; i < 10; ++i) q.Enqueue(EctPacket());
  // Instantaneous queue ~15 KB, but the EWMA has barely moved — the lag
  // that makes RED miss microbursts (the DCTCP argument).
  EXPECT_LT(q.AverageQueue(), 1000.0);
  EXPECT_GT(q.AverageQueue(), 0.0);
}

TEST(RedQueueTest, NonEctNeverMarked) {
  Rng rng(1);
  DropTailEcnQueue q(4 * kMiB, 0);
  RedConfig red;
  red.min_th = 1;
  red.max_th = 2;
  red.weight = 1.0;
  q.EnableRed(red, &rng);
  for (int i = 0; i < 10; ++i) {
    Packet pkt;
    pkt.payload = 1460;
    pkt.ecn = Ecn::kNotEct;
    q.Enqueue(pkt);
  }
  EXPECT_EQ(q.stats().marked, 0u);
}

TEST(RedQueueTest, MarkedCounterMatchesCeCodepointsInQueue) {
  Rng rng(5);
  DropTailEcnQueue q(16 * kMiB, 0);
  RedConfig red;
  red.min_th = 1;
  red.max_th = 4 * 1514;
  red.max_p = 1.0;
  red.weight = 1.0;
  q.EnableRed(red, &rng);
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(q.Enqueue(EctPacket()));
  EXPECT_EQ(q.stats().enqueued, 200u);
  // stats().marked is exactly the number of CE-stamped packets stored —
  // the marking mutates the queue's slot, not the caller's copy.
  std::uint64_t ce = 0;
  while (const std::optional<Packet> pkt = q.Dequeue()) {
    if (pkt->ecn == Ecn::kCe) ++ce;
  }
  EXPECT_GT(ce, 0u);
  EXPECT_EQ(q.stats().marked, ce);
}

// Determinism invariant of the datapath rework: the RED EWMA and RNG
// advance identically on every arrival whether or not the packet is
// ECN-capable, so a mixed ECT/non-ECT workload cannot shift the marking
// decisions seen by later arrivals.
TEST(RedQueueTest, EwmaAndRngAdvancePerArrivalRegardlessOfEct) {
  Rng rng_ect(99);
  Rng rng_mixed(99);
  DropTailEcnQueue ect(16 * kMiB, 0);
  DropTailEcnQueue mixed(16 * kMiB, 0);
  RedConfig red;
  red.min_th = 1;
  red.max_th = 20 * 1514;
  red.max_p = 0.5;
  red.weight = 0.1;
  ect.EnableRed(red, &rng_ect);
  mixed.EnableRed(red, &rng_mixed);
  for (int i = 0; i < 500; ++i) {
    Packet pkt = EctPacket();
    ect.Enqueue(pkt);
    if (i % 3 == 0) pkt.ecn = Ecn::kNotEct;
    mixed.Enqueue(pkt);
    if (i % 2 == 1) {
      ect.Dequeue();
      mixed.Dequeue();
    }
  }
  EXPECT_DOUBLE_EQ(ect.AverageQueue(), mixed.AverageQueue());
  // Both queues consumed the same number of random draws.
  EXPECT_EQ(rng_ect.Next(), rng_mixed.Next());
  // But the CE codepoint only ever lands on ECT packets.
  EXPECT_GT(ect.stats().marked, mixed.stats().marked);
  EXPECT_GT(mixed.stats().marked, 0u);
}

TEST(RedIntegrationTest, DctcpOverRedTransfers) {
  Simulator sim(1);
  Network net(sim);
  Switch& sw = net.AddSwitch("sw");
  Host& a = net.AddHost("a");
  Host& b = net.AddHost("b");
  LinkConfig fast;
  fast.rate = DataRate::GigabitsPerSec(10);
  net.ConnectHost(a, sw, fast);
  LinkConfig to_b;
  to_b.red = true;  // replace instantaneous-K with RED
  net.ConnectHost(b, sw, to_b, Network::NicConfig(LinkConfig{}));
  net.InstallRoutes();

  Bytes received = 0;
  TcpSocket::Ptr server;
  TcpListener listener(
      b, 5000, [] { return MakeCongestionOps(Protocol::kDctcp); },
      TcpSocket::Config{}, [&](TcpSocket::Ptr s) {
        server = std::move(s);
        server->set_on_data([&](Bytes n) { received += n; });
      });
  TcpSocket client(a, MakeCongestionOps(Protocol::kDctcp),
                   TcpSocket::Config{});
  client.set_on_connected([&] { client.Send(2 * kMiB); });
  client.Connect(b.id(), 5000);
  sim.RunUntil(10 * kSecond);
  EXPECT_EQ(received, 2 * kMiB);
  EXPECT_GT(net.PortTowardsHost(sw, b).queue().stats().marked, 0u);
}

}  // namespace
}  // namespace dctcpp

// Golden incast fingerprints: the simulation output of fixed incast
// scenarios, pinned as FNV-1a `Fingerprint(IncastResult)` constants.
//
// Every constant was recorded on the production datapath and reproduced,
// bit for bit, by each of the reference datapaths that used to ship
// beside it: the scalar per-packet pipeline (one wheel pop per event, no
// prefetch, the three-copy egress chain), the std::deque packet FIFO, and
// the std::map flow table. A mechanism change (batching, prefetching,
// container or layout swaps) must leave every entry unchanged; a change
// that is meant to alter simulation output re-records the table and says
// why.
//
// Corpus:
//   - the burst-pipeline scenarios: DCTCP, N=40, 4 rounds of 256 KiB,
//     min RTO 10 ms, seed 3, on clean, lossy (Gilbert-Elliott + reorder),
//     chaos (loss, duplication, corruption, reorder) and GE-only links;
//     one constant for the classic engine and one shared by every shard
//     count of the parallel engine (shards 2 and 4 run on a pool);
//   - the canonical incast at datapath_regression's smoke length: DCTCP,
//     N=40, 30 rounds of 1 MiB, seed 1;
//   - DCTCP, N=24, 8 rounds of 512 KiB, seed 3 (default 200 ms RTO);
//   - DCTCP+, N=200, 8 KiB per flow, 3 rounds, seed 5, clean and lossy,
//     classic engine and 2 shards: the slow_time path at high fan-in.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>

#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/incast.h"

namespace dctcpp {
namespace {

using namespace time_literals;

ImpairmentConfig Lossy() {
  ImpairmentConfig lossy;
  lossy.ge_p_good_to_bad = 0.01;
  lossy.ge_p_bad_to_good = 0.3;
  lossy.ge_loss_bad = 0.5;
  lossy.reorder_prob = 0.02;
  return lossy;
}

ImpairmentConfig Chaos() {
  ImpairmentConfig chaos;
  chaos.random_loss = 0.005;
  chaos.duplicate_prob = 0.01;
  chaos.corrupt_prob = 0.005;
  chaos.reorder_prob = 0.01;
  return chaos;
}

ImpairmentConfig GilbertElliott() {
  ImpairmentConfig ge = Lossy();
  ge.reorder_prob = 0.0;
  return ge;
}

IncastConfig Burst(const ImpairmentConfig& impairment) {
  IncastConfig c;
  c.protocol = Protocol::kDctcp;
  c.num_flows = 40;
  c.rounds = 4;
  c.total_bytes = 256 * kKiB;
  c.min_rto = 10 * kMillisecond;
  c.seed = 3;
  c.link.impairment = impairment;
  return c;
}

IncastConfig DctcpPlus200(const ImpairmentConfig& impairment) {
  IncastConfig c;
  c.protocol = Protocol::kDctcpPlus;
  c.num_flows = 200;
  c.per_flow_bytes = 8 * kKiB;
  c.rounds = 3;
  c.seed = 5;
  c.link.impairment = impairment;
  return c;
}

/// Runs `config` at each shard count (0 = the classic single-Simulator
/// engine; 2 and up use `pool`) and expects every run to fingerprint to
/// `golden`.
void ExpectGolden(IncastConfig config, std::initializer_list<int> shards,
                  std::uint64_t golden) {
  ThreadPool pool(3);
  for (const int s : shards) {
    SCOPED_TRACE("shards=" + std::to_string(s));
    config.shards = s;
    config.shard_pool = s > 1 ? &pool : nullptr;
    const IncastResult r = RunIncast(config);
    EXPECT_EQ(r.invariant_violations, 0u);
    const std::uint64_t fp = Fingerprint(r);
    EXPECT_EQ(fp, golden) << "got 0x" << std::hex << fp;
  }
}

TEST(GoldenIncastTest, BurstPipelineUnsharded) {
  {
    SCOPED_TRACE("clean");
    ExpectGolden(Burst({}), {0}, 0x042da26ad705291cull);
  }
  {
    SCOPED_TRACE("lossy");
    ExpectGolden(Burst(Lossy()), {0}, 0xd55ac34ab31bd6f1ull);
  }
  {
    SCOPED_TRACE("chaos");
    ExpectGolden(Burst(Chaos()), {0}, 0x9352eeb39a11f146ull);
  }
}

TEST(GoldenIncastTest, BurstPipelineShardCountInvariant) {
  {
    SCOPED_TRACE("clean");
    ExpectGolden(Burst({}), {1, 2, 4}, 0x1c7414c9c35600c3ull);
  }
  {
    SCOPED_TRACE("lossy");
    ExpectGolden(Burst(Lossy()), {1, 2, 4}, 0x796a420e3c144804ull);
  }
  {
    SCOPED_TRACE("chaos");
    ExpectGolden(Burst(Chaos()), {1, 2, 4}, 0x71804dd8bc66c62eull);
  }
}

TEST(GoldenIncastTest, BurstPipelineGilbertElliott) {
  ExpectGolden(Burst(GilbertElliott()), {0}, 0x5b8849634cf68c27ull);
  ExpectGolden(Burst(GilbertElliott()), {1, 4}, 0x28cd71135b1b743aull);
}

TEST(GoldenIncastTest, CanonicalIncastSmoke) {
  IncastConfig c;
  c.protocol = Protocol::kDctcp;
  c.num_flows = 40;
  c.rounds = 30;
  c.total_bytes = 1 * kMiB;
  c.seed = 1;
  ExpectGolden(c, {0}, 0x22decbdf97f6f6f9ull);
}

TEST(GoldenIncastTest, DctcpN24) {
  IncastConfig c;
  c.protocol = Protocol::kDctcp;
  c.num_flows = 24;
  c.rounds = 8;
  c.total_bytes = 512 * kKiB;
  c.seed = 3;
  ExpectGolden(c, {0}, 0xa772c43d66d6d52bull);
}

TEST(GoldenIncastTest, DctcpPlusN200) {
  {
    SCOPED_TRACE("clean");
    ExpectGolden(DctcpPlus200({}), {0}, 0x9e32673808633bf5ull);
    ExpectGolden(DctcpPlus200({}), {2}, 0xe2adbe7670817b96ull);
  }
  {
    SCOPED_TRACE("lossy");
    ExpectGolden(DctcpPlus200(Lossy()), {0}, 0x622eb78eb65ccb06ull);
    ExpectGolden(DctcpPlus200(Lossy()), {2}, 0xf045fafe52eb9f88ull);
  }
}

}  // namespace
}  // namespace dctcpp

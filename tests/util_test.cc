// Unit tests for dctcpp/util: time, units, RNG, flags, thread pool.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "dctcpp/util/flags.h"
#include "dctcpp/util/rng.h"
#include "dctcpp/util/thread_pool.h"
#include "dctcpp/util/time.h"
#include "dctcpp/util/units.h"

namespace dctcpp {
namespace {

using namespace time_literals;

// ---------------------------------------------------------------------------
// Time

TEST(TimeTest, LiteralsProduceNanoseconds) {
  EXPECT_EQ(1_ns, 1);
  EXPECT_EQ(1_us, 1000);
  EXPECT_EQ(1_ms, 1000 * 1000);
  EXPECT_EQ(1_s, 1000LL * 1000 * 1000);
  EXPECT_EQ(250_us, 250 * kMicrosecond);
}

TEST(TimeTest, ConversionsAreExactForWholeUnits) {
  EXPECT_DOUBLE_EQ(ToSeconds(2_s), 2.0);
  EXPECT_DOUBLE_EQ(ToMillis(3_ms), 3.0);
  EXPECT_DOUBLE_EQ(ToMicros(7_us), 7.0);
}

TEST(TimeTest, FormatPicksUnit) {
  EXPECT_EQ(FormatTick(5), "5ns");
  EXPECT_EQ(FormatTick(1500), "1.500us");
  EXPECT_EQ(FormatTick(2 * kMillisecond), "2.000ms");
  EXPECT_EQ(FormatTick(3 * kSecond), "3.000s");
}

TEST(TimeTest, FormatNegative) {
  EXPECT_EQ(FormatTick(-1500), "-1.500us");
}

// ---------------------------------------------------------------------------
// Units

TEST(UnitsTest, TransmissionTimeExact) {
  // 1250 bytes at 1 Gbps = 10000 ns exactly.
  const DataRate gbps = DataRate::GigabitsPerSec(1);
  EXPECT_EQ(gbps.TransmissionTime(1250), 10000);
}

TEST(UnitsTest, TransmissionTimeRoundsUp) {
  // 1 byte at 3 Gbps: 8/3 ns -> 3 ns.
  const DataRate r = DataRate::GigabitsPerSec(3);
  EXPECT_EQ(r.TransmissionTime(1), 3);
}

TEST(UnitsTest, TransmissionTimeZeroBytes) {
  EXPECT_EQ(DataRate::GigabitsPerSec(1).TransmissionTime(0), 0);
}

TEST(UnitsTest, BytesPerInvertsTransmissionTime) {
  const DataRate r = DataRate::MegabitsPerSec(100);
  const Bytes n = 123456;
  const Tick t = r.TransmissionTime(n);
  // Round-trip is within one byte of the original.
  EXPECT_NEAR(static_cast<double>(r.BytesPer(t)), static_cast<double>(n),
              1.0);
}

TEST(UnitsTest, RateConstructorsAgree) {
  EXPECT_EQ(DataRate::KilobitsPerSec(1000), DataRate::MegabitsPerSec(1));
  EXPECT_EQ(DataRate::MegabitsPerSec(1000), DataRate::GigabitsPerSec(1));
}

TEST(UnitsTest, GoodputMbps) {
  // 125 MB in 1 s = 1000 Mbps.
  EXPECT_DOUBLE_EQ(GoodputMbps(125 * 1000 * 1000, 1_s), 1000.0);
  EXPECT_DOUBLE_EQ(GoodputMbps(100, 0), 0.0);
}

// ---------------------------------------------------------------------------
// Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntStaysInRangeAndHitsEndpoints) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.UniformInt(3, 10);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 10);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);  // all 8 values observed
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(5, 5), 5);
  }
}

TEST(RngTest, UniformIntIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.UniformInt(0, kBuckets - 1)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(RngTest, UniformTickBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const Tick t = rng.UniformTick(100);
    ASSERT_GE(t, 0);
    ASSERT_LE(t, 100);
  }
  EXPECT_EQ(rng.UniformTick(0), 0);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(17);
  double sum = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / kSamples, 5.0, 0.1);
}

TEST(RngTest, ExponentialNonNegative) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(rng.Exponential(1.0), 0.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ForkIsIndependentStream) {
  Rng parent(31);
  Rng child = parent.Fork();
  // The child stream is not a suffix/copy of the parent stream.
  Rng parent2(31);
  parent2.Fork();
  EXPECT_EQ(parent.Next(), parent2.Next());  // fork advanced both equally
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.Next() == child.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SplitMix64KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 0, s2 = 0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(SplitMix64(s1), SplitMix64(s2));
  }
}

// ---------------------------------------------------------------------------
// EmpiricalCdf

TEST(EmpiricalCdfTest, SamplesWithinSupport) {
  EmpiricalCdf cdf({{10.0, 0.0}, {100.0, 0.5}, {1000.0, 1.0}});
  Rng rng(41);
  for (int i = 0; i < 10000; ++i) {
    const double x = cdf.Sample(rng);
    ASSERT_GE(x, 10.0);
    ASSERT_LE(x, 1000.0);
  }
}

TEST(EmpiricalCdfTest, MedianLandsAtMidpoint) {
  EmpiricalCdf cdf({{0.0, 0.0}, {100.0, 1.0}});  // uniform [0, 100]
  Rng rng(43);
  double sum = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += cdf.Sample(rng);
  EXPECT_NEAR(sum / kSamples, 50.0, 1.0);
}

TEST(EmpiricalCdfTest, AtomAtSinglePoint) {
  EmpiricalCdf cdf({{42.0, 1.0}});
  Rng rng(47);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(cdf.Sample(rng), 42.0);
  }
}

TEST(EmpiricalCdfTest, MeanOfUniform) {
  EmpiricalCdf cdf({{0.0, 0.0}, {10.0, 1.0}});
  EXPECT_DOUBLE_EQ(cdf.Mean(), 5.0);
}

TEST(EmpiricalCdfTest, MeanWithAtom) {
  // Half the mass is an atom at 2, half uniform on [2, 4]: mean = 1 + 1.5.
  EmpiricalCdf cdf({{2.0, 0.5}, {4.0, 1.0}});
  EXPECT_DOUBLE_EQ(cdf.Mean(), 0.5 * 2.0 + 0.5 * 3.0);
}

// ---------------------------------------------------------------------------
// Flags

TEST(FlagsTest, DefaultsSurviveEmptyParse) {
  Flags flags;
  flags.DefineInt("n", 7, "");
  flags.DefineBool("b", true, "");
  flags.DefineDouble("d", 2.5, "");
  flags.DefineString("s", "hello", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("n"), 7);
  EXPECT_TRUE(flags.GetBool("b"));
  EXPECT_DOUBLE_EQ(flags.GetDouble("d"), 2.5);
  EXPECT_EQ(flags.GetString("s"), "hello");
}

TEST(FlagsTest, EqualsAndSpaceSyntax) {
  Flags flags;
  flags.DefineInt("n", 0, "");
  flags.DefineString("s", "", "");
  const char* argv[] = {"prog", "--n=42", "--s", "world"};
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("n"), 42);
  EXPECT_EQ(flags.GetString("s"), "world");
}

TEST(FlagsTest, BareBoolSetsTrue) {
  Flags flags;
  flags.DefineBool("verbose", false, "");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagsTest, BoolExplicitValues) {
  Flags flags;
  flags.DefineBool("x", false, "");
  const char* argv[] = {"prog", "--x=true"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.GetBool("x"));
  const char* argv2[] = {"prog", "--x=false"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv2)));
  EXPECT_FALSE(flags.GetBool("x"));
}

TEST(FlagsTest, UnknownFlagFails) {
  Flags flags;
  flags.DefineInt("n", 0, "");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.Failed());
}

TEST(FlagsTest, MalformedIntFails) {
  Flags flags;
  flags.DefineInt("n", 0, "");
  const char* argv[] = {"prog", "--n=12abc"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.Failed());
}

TEST(FlagsTest, NegativeIntAndDouble) {
  Flags flags;
  flags.DefineInt("n", 0, "");
  flags.DefineDouble("d", 0, "");
  const char* argv[] = {"prog", "--n=-5", "--d=-1.25"};
  ASSERT_TRUE(flags.Parse(3, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("n"), -5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("d"), -1.25);
}

TEST(FlagsTest, OutOfRangeIntFails) {
  for (const char* arg : {"--n=99999999999999999999",
                          "--n=-99999999999999999999",
                          "--n=9223372036854775808"}) {
    SCOPED_TRACE(arg);
    Flags flags;
    flags.DefineInt("n", 7, "");
    const char* argv[] = {"prog", arg};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
    EXPECT_TRUE(flags.Failed());
  }
}

TEST(FlagsTest, OutOfRangeDoubleFails) {
  for (const char* arg : {"--d=1e999", "--d=-1e999", "--d=1e-999"}) {
    SCOPED_TRACE(arg);
    Flags flags;
    flags.DefineDouble("d", 0.5, "");
    const char* argv[] = {"prog", arg};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
    EXPECT_TRUE(flags.Failed());
  }
}

TEST(FlagsTest, RangeLimitsParse) {
  // The extremes themselves are in range; errno left over from an earlier
  // out-of-range conversion must not reject them.
  errno = ERANGE;
  Flags flags;
  flags.DefineInt("hi", 0, "");
  flags.DefineInt("lo", 0, "");
  flags.DefineDouble("d", 0, "");
  const char* argv[] = {"prog", "--hi=9223372036854775807",
                        "--lo=-9223372036854775808", "--d=1.5e308"};
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(flags.GetInt("hi"), INT64_MAX);
  EXPECT_EQ(flags.GetInt("lo"), INT64_MIN);
  EXPECT_DOUBLE_EQ(flags.GetDouble("d"), 1.5e308);
}

TEST(FlagsTest, HelpReturnsFalseWithoutFailure) {
  Flags flags;
  flags.DefineInt("n", 0, "");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
  EXPECT_FALSE(flags.Failed());
}

TEST(FlagsTest, PositionalArgumentFails) {
  Flags flags;
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.Failed());
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SizeDefaultsToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  ParallelFor(pool, 50, [&hits](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIterations) {
  ThreadPool pool(2);
  ParallelFor(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, ParallelForGrainCoversChunkBoundaries) {
  // n deliberately not a multiple of grain: the last chunk is short, and
  // every index — first/last of each chunk included — must run exactly
  // once whatever thread claims which chunk.
  ThreadPool pool(3);
  for (std::size_t grain : {1u, 3u, 7u, 16u, 100u}) {
    constexpr std::size_t kN = 53;
    std::vector<std::atomic<int>> hits(kN);
    ParallelFor(
        pool, kN, [&hits](std::size_t i) { ++hits[i]; }, grain);
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "grain=" << grain << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForGrainPreservesIntraChunkOrder) {
  // Within one chunk the body runs sequentially in index order on a
  // single thread; record (thread, sequence) and check each grain-sized
  // chunk saw strictly increasing indices.
  ThreadPool pool(4);
  constexpr std::size_t kN = 64;
  constexpr std::size_t kGrain = 8;
  std::array<std::atomic<std::uint32_t>, kN> order{};
  std::atomic<std::uint32_t> ticket{0};
  ParallelFor(
      pool, kN,
      [&](std::size_t i) {
        order[i].store(ticket.fetch_add(1), std::memory_order_relaxed);
      },
      kGrain);
  for (std::size_t chunk = 0; chunk < kN; chunk += kGrain) {
    for (std::size_t i = chunk + 1; i < chunk + kGrain && i < kN; ++i) {
      EXPECT_LT(order[i - 1].load(), order[i].load()) << "i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      ParallelFor(pool, 10,
                  [](std::size_t i) {
                    if (i == 5) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ThreadPoolTest, PostRunsAllTasksFireAndForget) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 200; ++i) {
      pool.Post([&count] { ++count; });
    }
  }  // destructor joins after draining
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { ++count; });
    }
  }  // destructor joins after draining
  EXPECT_EQ(count.load(), 20);
}

}  // namespace
}  // namespace dctcpp

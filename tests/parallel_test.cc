// Tests for the conservative-parallel engine (net/parallel.h): arrival
// calendar ordering (differential against a sorted reference) and
// checkpointing, the window gang's epoch protocol, and the load-bearing
// property of the whole design — an incast run is bit-identical at every
// shard count, whatever thread pool runs the windows.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dctcpp/net/parallel.h"
#include "dctcpp/sim/checkpoint.h"
#include "dctcpp/util/rng.h"
#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/incast.h"

namespace dctcpp {
namespace {

TEST(ArrivalCalendarTest, OrdersByTickThenKey) {
  ArrivalCalendar cal;
  EXPECT_TRUE(cal.Empty());
  EXPECT_EQ(cal.NextTime(), kTickMax);

  // Insert in scrambled order; expect (at, key) order out.
  Rng rng(7);
  std::vector<CalendarEntry> entries;
  for (int i = 0; i < 200; ++i) {
    CalendarEntry e;
    e.at = static_cast<Tick>(rng.Next() % 16);  // force many tick ties
    e.key = rng.Next();
    entries.push_back(e);
  }
  for (const auto& e : entries) cal.Push(e.at, e.key, e.sink, e.pkt);
  ASSERT_EQ(cal.Size(), entries.size());

  Tick prev_at = -1;
  std::uint64_t prev_key = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(cal.NextTime(), cal.NextTime());
    const CalendarEntry e = cal.PopEarliest();
    if (e.at == prev_at) {
      EXPECT_GT(e.key, prev_key);
    } else {
      EXPECT_GT(e.at, prev_at);
    }
    prev_at = e.at;
    prev_key = e.key;
  }
  EXPECT_TRUE(cal.Empty());
}

TEST(ArrivalCalendarTest, InsertionOrderOfTiedTicksIsIrrelevant) {
  // Two calendars fed the same entries in opposite order must drain
  // identically — the property mailbox merges rely on.
  std::vector<CalendarEntry> entries;
  for (int i = 0; i < 32; ++i) {
    CalendarEntry e;
    e.at = 5;
    e.key = static_cast<std::uint64_t>(31 - i);
    entries.push_back(e);
  }
  ArrivalCalendar fwd;
  ArrivalCalendar rev;
  for (const auto& e : entries) fwd.Push(e.at, e.key, e.sink, e.pkt);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    rev.Push(it->at, it->key, it->sink, it->pkt);
  }
  while (!fwd.Empty()) {
    ASSERT_FALSE(rev.Empty());
    EXPECT_EQ(fwd.PopEarliest().key, rev.PopEarliest().key);
  }
  EXPECT_TRUE(rev.Empty());
}

// --- differential and checkpoint tests against a sorted reference --------

struct NullSink : PacketSink {
  void Deliver(const Packet&) override {}
};

/// Stand-ins for the coordinator's port-gid registry: an entry's sink is
/// a function of its key's port half, as SinkForGid makes it.
NullSink g_sinks[4];
PacketSink* SinkForKey(std::uint64_t key) { return &g_sinks[(key >> 32) & 3]; }

/// A packet whose fields are a function of its key, so a drain can check
/// that every packet travelled with its own (at, key).
Packet PacketForKey(std::uint64_t key) {
  Packet p;
  p.uid = key * 0x9e3779b97f4a7c15ULL;
  p.payload = static_cast<std::int32_t>(key & 0x3ff);
  p.tcp.seq = static_cast<std::uint32_t>(key >> 7);
  return p;
}

using RefEntry = std::pair<Tick, std::uint64_t>;

/// Drives an ArrivalCalendar and a std::set of (at, key) with the same
/// operations. The traffic imitates what a shard's calendar serves:
/// per-port pushes due now + link delay (ports in random order, so
/// same-tick pushes arrive with key inversions), random-key pushes, and
/// cross-shard merges as AppendRaw + FinishBulk batches.
class CalendarVsReference {
 public:
  explicit CalendarVsReference(std::uint64_t seed) : rng_(seed) {}

  ArrivalCalendar& cal() { return cal_; }
  const std::set<RefEntry>& ref() const { return ref_; }

  void Push(Tick at, std::uint64_t key) {
    cal_.Push(at, key, SinkForKey(key), PacketForKey(key));
    ASSERT_TRUE(ref_.insert({at, key}).second);
  }

  /// A delivery due now + its link's delay, keyed by the port's next
  /// wire sequence (ports 0..7, three delay classes).
  void PortPush() {
    const std::uint64_t port = rng_.Next() % 8;
    const Tick at = now_ + 10 + static_cast<Tick>(port % 3);
    Push(at, port << 32 | wire_seq_[port]++);
  }

  /// An arrival at a random tick ahead, from a port range of its own.
  void RandomPush() {
    const Tick at = now_ + static_cast<Tick>(rng_.Next() % 64);
    Push(at, (8 + rng_.Next() % 8) << 32 | random_seq_++);
  }

  /// A cross-shard merge of `n` entries: AppendRaw in staging order, then
  /// one FinishBulk.
  void Bulk(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const Tick at = now_ + static_cast<Tick>(rng_.Next() % 32);
      const std::uint64_t key = (16 + rng_.Next() % 8) << 32 | bulk_seq_++;
      cal_.AppendRaw(at, key, SinkForKey(key), PacketForKey(key));
      ASSERT_TRUE(ref_.insert({at, key}).second);
    }
    cal_.FinishBulk();
  }

  /// Checks NextTime, PeekEarliest and PopEarliest against the reference.
  void Pop() {
    ASSERT_FALSE(ref_.empty());
    ASSERT_FALSE(cal_.Empty());
    const RefEntry want = *ref_.begin();
    ref_.erase(ref_.begin());
    ASSERT_EQ(cal_.NextTime(), want.first);
    ASSERT_EQ(cal_.PeekEarliest().key, want.second);
    const CalendarEntry& e = cal_.PopEarliest();
    ASSERT_EQ(e.at, want.first);
    ASSERT_EQ(e.key, want.second);
    ASSERT_EQ(e.sink, SinkForKey(e.key));
    ASSERT_EQ(e.pkt.uid, PacketForKey(e.key).uid);
    ASSERT_EQ(e.pkt.payload, PacketForKey(e.key).payload);
    ASSERT_EQ(cal_.Size(), ref_.size());
    now_ = e.at;
  }

  /// One round of mixed traffic; leaves at most 48 entries pending.
  void Round() {
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t op = rng_.Next() % 10;
      if (op < 5) {
        PortPush();
      } else if (op < 7) {
        RandomPush();
      } else if (!ref_.empty()) {
        Pop();
      }
    }
    // The round's random pushes leave the heap far above 12 entries, so
    // a batch of 1-3 takes FinishBulk's k-sift-up branch; a batch larger
    // than the whole calendar takes the O(n) rebuild.
    Bulk(1 + rng_.Next() % 3);
    Bulk(cal_.Size() + 1 + rng_.Next() % 16);
    while (ref_.size() > 48) Pop();
  }

  void DrainAll() {
    while (!ref_.empty()) Pop();
    ASSERT_TRUE(cal_.Empty());
    ASSERT_EQ(cal_.NextTime(), kTickMax);
  }

 private:
  Rng rng_;
  ArrivalCalendar cal_;
  std::set<RefEntry> ref_;
  std::uint32_t wire_seq_[8] = {};
  std::uint64_t random_seq_ = 0;
  std::uint64_t bulk_seq_ = 0;
  Tick now_ = 0;
};

TEST(ArrivalCalendarTest, MatchesSortedReferenceUnderMixedTraffic) {
  for (std::uint64_t seed : {1, 2, 3}) {
    CalendarVsReference d(seed);
    for (int round = 0; round < 40; ++round) {
      d.Round();
      if (HasFatalFailure()) return;
    }
    d.DrainAll();
    // Both parts carried traffic.
    EXPECT_GT(d.cal().run_inserts(), 0u);
    EXPECT_LT(d.cal().run_inserts(), d.cal().inserts());
  }
}

/// A calendar blob holding `order`'s entries in that order.
std::vector<std::uint8_t> BlobInOrder(const std::vector<RefEntry>& order) {
  CheckpointWriter w;
  w.U64(order.size());
  for (const RefEntry& e : order) {
    w.I64(e.first);
    w.U64(e.second);
    SavePacket(w, PacketForKey(e.second));
  }
  return w.TakeBlob();
}

std::vector<std::uint8_t> SaveCalendar(ArrivalCalendar& cal) {
  CheckpointWriter w;
  cal.SaveState(w);
  return w.TakeBlob();
}

void LoadCalendar(ArrivalCalendar& cal, const std::vector<std::uint8_t>& blob) {
  CheckpointReader r(blob);
  cal.LoadState(r, SinkForKey);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ArrivalCalendarTest, CheckpointIsCanonicalAndDrainsInOrder) {
  CalendarVsReference d(11);
  for (int round = 0; round < 6; ++round) d.Round();
  ASSERT_FALSE(d.cal().Empty());
  const std::vector<std::uint8_t> blob = SaveCalendar(d.cal());
  // Entries in (at, key) order, whichever part held them.
  EXPECT_EQ(blob, BlobInOrder({d.ref().begin(), d.ref().end()}));

  // Save -> Load -> Save gives the same bytes.
  ArrivalCalendar restored;
  LoadCalendar(restored, blob);
  EXPECT_EQ(SaveCalendar(restored), blob);

  // The restored calendar drains exactly as the original.
  ASSERT_EQ(restored.Size(), d.cal().Size());
  while (!d.cal().Empty()) {
    const CalendarEntry want = d.cal().PopEarliest();
    const CalendarEntry& got = restored.PopEarliest();
    ASSERT_EQ(got.at, want.at);
    ASSERT_EQ(got.key, want.key);
    ASSERT_EQ(got.sink, want.sink);
    ASSERT_EQ(got.pkt.uid, want.pkt.uid);
  }
  EXPECT_TRUE(restored.Empty());
}

TEST(ArrivalCalendarTest, LoadsBlobsInAnyEntryOrder) {
  // Older blobs hold entries in raw heap-array order; LoadState must take
  // that, or any other order, and save it back canonically.
  Rng rng(5);
  std::vector<RefEntry> entries;
  for (std::uint64_t i = 0; i < 300; ++i) {
    entries.push_back({static_cast<Tick>(rng.Next() % 40),
                       (rng.Next() % 4) << 32 | i});
  }
  std::vector<RefEntry> sorted = entries;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<std::uint8_t> canonical = BlobInOrder(sorted);

  std::vector<RefEntry> heap_order = entries;
  std::make_heap(heap_order.begin(), heap_order.end(),
                 std::greater<RefEntry>());
  for (const auto& order : {heap_order, entries}) {
    ArrivalCalendar cal;
    LoadCalendar(cal, BlobInOrder(order));
    EXPECT_EQ(SaveCalendar(cal), canonical);
    for (const RefEntry& want : sorted) {
      const CalendarEntry& e = cal.PopEarliest();
      ASSERT_EQ(e.at, want.first);
      ASSERT_EQ(e.key, want.second);
      ASSERT_EQ(e.sink, SinkForKey(e.key));
      ASSERT_EQ(e.pkt.uid, PacketForKey(e.key).uid);
    }
    EXPECT_TRUE(cal.Empty());
  }
}

TEST(WindowGangTest, EveryTaskRunsExactlyOncePerWindow) {
  constexpr int kTasks = 5;
  constexpr int kWindows = 20000;  // enough to expose epoch races
  ThreadPool pool(3);
  std::atomic<std::uint64_t> counts[kTasks] = {};
  {
    WindowGang gang(pool, /*helpers=*/3, [&counts](int t) {
      counts[t].fetch_add(1, std::memory_order_relaxed);
    });
    for (int w = 0; w < kWindows; ++w) {
      // Window sizes vary, exercising the count re-publish.
      gang.Run(1 + w % kTasks);
    }
  }
  std::uint64_t expected[kTasks] = {};
  for (int w = 0; w < kWindows; ++w) {
    for (int t = 0; t < 1 + w % kTasks; ++t) ++expected[t];
  }
  for (int t = 0; t < kTasks; ++t) {
    EXPECT_EQ(counts[t].load(), expected[t]) << "task " << t;
  }
}

TEST(WindowGangTest, OversubscribedGangCompletesEveryWindow) {
  // Far more helpers than this machine plausibly has cores: the backoff
  // (pause -> yield -> short sleep) must degrade to parked helpers, not
  // livelock, and the epoch protocol must stay correct when helpers wake
  // several windows late.
  constexpr int kHelpers = 8;
  constexpr int kTasks = 6;
  constexpr int kWindows = 3000;
  ThreadPool pool(kHelpers);
  std::atomic<std::uint64_t> counts[kTasks] = {};
  {
    WindowGang gang(pool, kHelpers, [&counts](int t) {
      counts[t].fetch_add(1, std::memory_order_relaxed);
    });
    for (int w = 0; w < kWindows; ++w) gang.Run(1 + w % kTasks);
  }
  std::uint64_t expected[kTasks] = {};
  for (int w = 0; w < kWindows; ++w) {
    for (int t = 0; t < 1 + w % kTasks; ++t) ++expected[t];
  }
  for (int t = 0; t < kTasks; ++t) {
    EXPECT_EQ(counts[t].load(), expected[t]) << "task " << t;
  }
}

TEST(WindowGangTest, CallerAloneCompletesWhenPoolIsBusy) {
  // Saturate the one-thread pool so the helper can never start: the
  // caller must still finish every window on its own.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.Post([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  std::atomic<int> ran{0};
  {
    WindowGang gang(pool, /*helpers=*/1,
                    [&ran](int) { ran.fetch_add(1); });
    for (int w = 0; w < 100; ++w) gang.Run(3);
    release.store(true);
  }
  EXPECT_EQ(ran.load(), 300);
}

// --- shard-count determinism ---------------------------------------------

/// Every field of an IncastResult rendered byte-exactly: integers in
/// decimal, doubles in C99 hex-float ("%a" — no rounding). Two runs are
/// "bit-identical" iff these strings match.
std::string Canonical(const IncastResult& r) {
  std::string out;
  char buf[64];
  auto add_u = [&](const char* k, std::uint64_t v) {
    std::snprintf(buf, sizeof buf, "%s=%llu\n", k,
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  auto add_d = [&](const char* k, double v) {
    std::snprintf(buf, sizeof buf, "%s=%a\n", k, v);
    out += buf;
  };
  add_u("rounds", r.rounds_completed);
  add_d("goodput", r.goodput_mbps);
  add_u("fct_n", r.fct_ms.count());
  for (double s : r.fct_ms.samples()) add_d("fct", s);
  for (std::int64_t b = r.cwnd_hist.lo(); b <= r.cwnd_hist.hi(); ++b) {
    add_u("cwnd", r.cwnd_hist.CountAt(b));
  }
  add_u("cwnd_under", r.cwnd_hist.underflow());
  add_u("cwnd_over", r.cwnd_hist.overflow());
  add_u("timeouts", r.timeouts);
  add_u("floss", r.floss_timeouts);
  add_u("lack", r.lack_timeouts);
  add_u("fastrtx", r.fast_retransmits);
  add_u("tr_atmin", r.tracked_rounds_at_min_ece);
  add_u("tr_to", r.tracked_rounds_with_timeout);
  add_u("tr_floss", r.tracked_floss);
  add_u("tr_lack", r.tracked_lack);
  add_u("bn_drops", r.bottleneck_drops);
  add_u("bn_marks", r.bottleneck_marks);
  add_u("bn_maxq", static_cast<std::uint64_t>(r.bottleneck_max_queue));
  add_d("fairness", r.flow_fairness);
  add_u("events", r.events);
  add_u("pkts_fwd", r.packets_forwarded);
  add_d("sim_s", r.sim_seconds);
  add_u("limit", r.hit_time_limit ? 1 : 0);
  add_u("violations", r.invariant_violations);
  add_u("originated", r.packets_originated);
  add_u("dropped", r.packets_dropped);
  add_u("duplicated", r.packets_duplicated);
  add_u("checksum", r.checksum_discards);
  return out;
}

/// Runs `base` at shards {1, 2, 4, 8} with deliberately mismatched pools
/// (including none at all) — in adaptive channel-clock mode AND with the
/// fixed-W oracle at shards {1, 4, 8} — and requires byte-identical
/// summaries across the whole matrix. The ledger is part of Canonical(),
/// so the NetworkInvariants merge is covered by the same comparison, and
/// window counters are NOT part of it (they differ by design: that is
/// the point of adaptive lookahead).
void ExpectShardCountInvariant(IncastConfig base, const char* tag) {
  ThreadPool small_pool(2);
  ThreadPool big_pool(7);
  struct Variant {
    int shards;
    ThreadPool* pool;
    bool fixed_window;
  };
  const Variant variants[] = {
      {1, nullptr, false},     // degenerate sharding, pure inline
      {2, &big_pool, false},   // more helpers than shards
      {4, &small_pool, false},  // fewer helpers than shards
      {8, &big_pool, false},
      {1, nullptr, true},      // PR-5 fixed-W oracle must agree byte-wise
      {4, &small_pool, true},
      {8, &big_pool, true},
  };
  std::string reference;
  int reference_shards = 0;
  for (const Variant& v : variants) {
    base.shards = v.shards;
    base.shard_pool = v.pool;
    base.fixed_window_lookahead = v.fixed_window;
    const IncastResult r = RunIncast(base);
    EXPECT_EQ(r.invariant_violations, 0u)
        << tag << " shards=" << v.shards << " fixed=" << v.fixed_window;
    EXPECT_GT(r.rounds_completed, 0u)
        << tag << " shards=" << v.shards << " fixed=" << v.fixed_window;
    const std::string canon = Canonical(r);
    if (reference.empty()) {
      reference = canon;
      reference_shards = v.shards;
    } else {
      EXPECT_EQ(canon, reference)
          << tag << ": shards=" << v.shards << " fixed=" << v.fixed_window
          << " diverged from shards=" << reference_shards;
    }
  }
}

IncastConfig BaseConfig(Protocol protocol, std::uint64_t seed) {
  IncastConfig config;
  config.protocol = protocol;
  config.num_flows = 48;
  config.num_workers = 9;
  config.per_flow_bytes = 8 * 1024;
  config.rounds = 4;
  config.min_rto = 10 * kMillisecond;
  config.seed = seed;
  return config;
}

TEST(ShardDeterminismTest, CleanDctcpPlus) {
  ExpectShardCountInvariant(BaseConfig(Protocol::kDctcpPlus, 1), "clean+");
}

TEST(ShardDeterminismTest, CleanDctcpOtherSeed) {
  ExpectShardCountInvariant(BaseConfig(Protocol::kDctcp, 42), "clean");
}

TEST(ShardDeterminismTest, ImpairedLinks) {
  // Full fault model in play: loss bursts, reordering, duplication,
  // corruption. Exercises impairment streams, the ledger's duplicated /
  // checksum columns, and retransmission paths across shard boundaries.
  IncastConfig config = BaseConfig(Protocol::kDctcpPlus, 7);
  config.link.impairment.random_loss = 0.005;
  config.link.impairment.ge_p_good_to_bad = 0.002;
  config.link.impairment.ge_p_bad_to_good = 0.3;
  config.link.impairment.ge_loss_bad = 0.8;
  config.link.impairment.reorder_prob = 0.01;
  config.link.impairment.reorder_delay_min = 20 * kMicrosecond;
  config.link.impairment.reorder_delay_max = 60 * kMicrosecond;
  config.link.impairment.duplicate_prob = 0.002;
  config.link.impairment.corrupt_prob = 0.001;
  ExpectShardCountInvariant(config, "impaired");
}

TEST(ShardDeterminismTest, BurstLossReorderAndFlaps) {
  // The full PR-4 impairment battery plus deterministic link flaps: flaps
  // down a link mid-round, stranding packets and forcing RTO recovery —
  // the slowest, most window-sparse phase the adaptive lookahead has to
  // chunk identically to the oracle.
  IncastConfig config = BaseConfig(Protocol::kDctcpPlus, 13);
  config.link.impairment.ge_p_good_to_bad = 0.002;
  config.link.impairment.ge_p_bad_to_good = 0.3;
  config.link.impairment.ge_loss_bad = 0.8;
  config.link.impairment.reorder_prob = 0.01;
  config.link.impairment.reorder_delay_min = 20 * kMicrosecond;
  config.link.impairment.reorder_delay_max = 60 * kMicrosecond;
  config.link.impairment.flaps.push_back(
      {5 * kMillisecond, 6 * kMillisecond});
  config.link.impairment.flaps.push_back(
      {20 * kMillisecond, 22 * kMillisecond});
  ExpectShardCountInvariant(config, "flaps");
}

TEST(ChannelClockTest, AdaptiveWindowsAreFarFewerThanFixed) {
  // The reason the tentpole exists: on the same run the channel-clock
  // engine must reach the same bytes with far fewer barriers than the
  // fixed-W oracle. (The >= 5x acceptance gate lives in parallel_scale on
  // the big N=1400 point; this guards the mechanism at test size.)
  ThreadPool pool(4);
  IncastConfig config = BaseConfig(Protocol::kDctcpPlus, 21);
  config.shards = 4;
  config.shard_pool = &pool;
  config.fixed_window_lookahead = true;
  const IncastResult fixed = RunIncast(config);
  config.fixed_window_lookahead = false;
  const IncastResult adaptive = RunIncast(config);
  EXPECT_EQ(Canonical(adaptive), Canonical(fixed));
  ASSERT_GT(fixed.windows_run, 0u);
  ASSERT_GT(adaptive.windows_run, 0u);
  EXPECT_LT(adaptive.windows_run * 2, fixed.windows_run)
      << "adaptive=" << adaptive.windows_run
      << " fixed=" << fixed.windows_run;
  // sync_rounds keeps the honest causality-barrier count: batching shrinks
  // the number of published windows, not the number of barriers, so
  // sync_rounds must stay in the same regime as the fixed oracle's windows
  // (it can only be lower via genuinely wider horizons, never by counting).
  EXPECT_GE(adaptive.sync_rounds, adaptive.windows_run);
  EXPECT_GT(adaptive.sync_rounds * 2, fixed.windows_run)
      << "adaptive sync_rounds=" << adaptive.sync_rounds
      << " fixed windows=" << fixed.windows_run;
  // windows_run is data-deterministic: publish/segment boundaries are
  // chosen by the coordinator from simulation state only, so a pool-free
  // run of the same config must report the identical count.
  config.shard_pool = nullptr;
  const IncastResult serial = RunIncast(config);
  EXPECT_EQ(Canonical(serial), Canonical(adaptive));
  EXPECT_EQ(serial.windows_run, adaptive.windows_run);
  EXPECT_EQ(serial.sync_rounds, adaptive.sync_rounds);
}

TEST(ChannelClockTest, ClocksNeverRegress) {
  // Property: per-shard channel clocks are monotone across windows. The
  // engine checks every barrier (lookahead_regressions folds into
  // invariant_violations), so driving the nastiest impaired configs at
  // several shard counts and asserting zero violations exercises the
  // property over hundreds of thousands of windows.
  for (const int shards : {2, 4, 8}) {
    ThreadPool pool(3);
    IncastConfig config = BaseConfig(Protocol::kDctcpPlus, 29);
    config.link.impairment.random_loss = 0.005;
    config.link.impairment.reorder_prob = 0.01;
    config.link.impairment.reorder_delay_min = 20 * kMicrosecond;
    config.link.impairment.reorder_delay_max = 60 * kMicrosecond;
    config.link.impairment.flaps.push_back(
        {5 * kMillisecond, 7 * kMillisecond});
    config.shards = shards;
    config.shard_pool = &pool;
    const IncastResult r = RunIncast(config);
    EXPECT_EQ(r.invariant_violations, 0u) << "shards=" << shards;
    EXPECT_GT(r.rounds_completed, 0u) << "shards=" << shards;
  }
}

TEST(ShardDeterminismTest, RedMarkingAndStagger) {
  // RED draws randomness per mark decision — in sharded mode from the
  // port's private stream — and the stagger spreads the round's requests.
  IncastConfig config = BaseConfig(Protocol::kTcp, 3);
  config.link.red = true;
  config.request_stagger = 20 * kMicrosecond;
  ExpectShardCountInvariant(config, "red");
}

TEST(ShardDeterminismTest, RepeatedRunIsBitIdentical) {
  // Same config, same shard count, same pool: the engine must also be
  // deterministic against itself (thread scheduling must not leak in).
  ThreadPool pool(4);
  IncastConfig config = BaseConfig(Protocol::kDctcpPlus, 11);
  config.shards = 4;
  config.shard_pool = &pool;
  const std::string a = Canonical(RunIncast(config));
  const std::string b = Canonical(RunIncast(config));
  EXPECT_EQ(a, b);
}

TEST(ShardedIncastTest, ProducesSaneResults) {
  ThreadPool pool(4);
  IncastConfig config = BaseConfig(Protocol::kDctcpPlus, 5);
  config.rounds = 6;
  config.shards = 4;
  config.shard_pool = &pool;
  const IncastResult r = RunIncast(config);
  EXPECT_EQ(r.rounds_completed, 6u);
  EXPECT_FALSE(r.hit_time_limit);
  EXPECT_GT(r.goodput_mbps, 0.0);
  EXPECT_GT(r.flow_fairness, 0.5);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.packets_forwarded, 0u);
  EXPECT_GT(r.events, 0u);
}

}  // namespace
}  // namespace dctcpp

// Checkpoint/restore fidelity: a churn soak checkpointed at tick T and
// resumed must be bit-identical (equal state fingerprint) to the same run
// left uninterrupted — across shard counts, thread pools, ACK-processing
// modes, and impairment profiles.
//
// Protocol (see workload/churn.h): the reference run and the restored run
// must stop at the same RunTo boundaries, because the coordinator's window
// sequence is part of the serialized state. Every comparison below drives
// both worlds through an identical ascending stop schedule.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "dctcpp/net/link.h"
#include "dctcpp/net/queue.h"
#include "dctcpp/sim/checkpoint.h"
#include "dctcpp/sim/simulator.h"
#include "dctcpp/tcp/socket.h"
#include "dctcpp/util/rng.h"
#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/churn.h"

namespace dctcpp {
namespace {

// Impairment profiles the matrix cycles through.
enum class Profile { kClean, kLossy, kChaos };

ChurnConfig SmallConfig(int shards, Profile profile,
                        std::int64_t target_live = 200) {
  ChurnConfig cfg;
  cfg.fat_tree.k = 4;  // 16 hosts
  cfg.link.propagation_delay = 2 * kMicrosecond;
  cfg.shards = shards;
  cfg.seed = 7;
  cfg.target_live_flows = target_live;
  cfg.mean_lifetime = 2 * kMillisecond;
  cfg.bytes_per_flow = 4 * kKiB;
  cfg.prewarm = 1 * kMillisecond;
  cfg.min_rto = 1 * kMillisecond;
  switch (profile) {
    case Profile::kClean:
      break;
    case Profile::kLossy:
      cfg.link.impairment.random_loss = 0.005;
      break;
    case Profile::kChaos:
      cfg.link.impairment.random_loss = 0.002;
      cfg.link.impairment.reorder_prob = 0.01;
      cfg.link.impairment.duplicate_prob = 0.002;
      cfg.link.impairment.corrupt_prob = 0.001;
      break;
  }
  return cfg;
}

// Runs `w` through every stop in `stops` (ascending absolute ticks).
void RunSchedule(ChurnWorkload& w, const std::vector<Tick>& stops,
                 ThreadPool* pool = nullptr) {
  for (Tick t : stops) w.RunTo(t, pool);
}

// Core gate: checkpoint at stops[cut], restore onto a fresh world, resume
// through the remaining stops, and compare against the uninterrupted
// reference driven through the identical schedule.
void ExpectBitIdenticalResume(const ChurnConfig& cfg,
                              const std::vector<Tick>& stops,
                              std::size_t cut, ThreadPool* pool = nullptr) {
  ChurnWorkload ref(cfg);
  ref.Start();
  RunSchedule(ref, stops, pool);
  const std::uint64_t want = ref.Fingerprint();

  ChurnWorkload first(cfg);
  first.Start();
  std::vector<std::uint8_t> blob;
  for (std::size_t i = 0; i <= cut; ++i) first.RunTo(stops[i], pool);
  blob = first.SaveCheckpoint();

  ChurnWorkload resumed(cfg);
  resumed.RestoreCheckpoint(blob);
  // The restored world serializes back to the exact blob it came from.
  EXPECT_EQ(resumed.SaveCheckpoint(), blob);
  for (std::size_t i = cut + 1; i < stops.size(); ++i) {
    resumed.RunTo(stops[i], pool);
  }
  EXPECT_EQ(resumed.Fingerprint(), want)
      << "restore at t=" << stops[cut] << " diverged";
}

std::vector<Tick> EvenStops(Tick end, int n) {
  std::vector<Tick> stops;
  for (int i = 1; i <= n; ++i) stops.push_back(end * i / n);
  return stops;
}

TEST(CheckpointTest, RestoredBlobRoundTripsSingleShard) {
  ChurnWorkload w(SmallConfig(1, Profile::kClean));
  w.Start();
  w.RunTo(4 * kMillisecond);
  const std::vector<std::uint8_t> blob = w.SaveCheckpoint();

  ChurnWorkload restored(SmallConfig(1, Profile::kClean));
  restored.RestoreCheckpoint(blob);
  EXPECT_EQ(restored.SaveCheckpoint(), blob);
  EXPECT_EQ(restored.live_flows(), w.live_flows());
  EXPECT_EQ(restored.Stats().flows_completed, w.Stats().flows_completed);
}

TEST(CheckpointTest, ResumeMatchesUninterruptedSingleShard) {
  ExpectBitIdenticalResume(SmallConfig(1, Profile::kClean),
                           EvenStops(8 * kMillisecond, 4), /*cut=*/1);
}

TEST(CheckpointTest, ResumeMatchesUnderImpairments) {
  ExpectBitIdenticalResume(SmallConfig(1, Profile::kLossy),
                           EvenStops(8 * kMillisecond, 4), /*cut=*/2);
  ExpectBitIdenticalResume(SmallConfig(1, Profile::kChaos),
                           EvenStops(8 * kMillisecond, 4), /*cut=*/1);
}

TEST(CheckpointTest, ResumeMatchesAcrossShardCounts) {
  for (int shards : {2, 4, 8}) {
    for (Profile p : {Profile::kLossy, Profile::kChaos}) {
      ExpectBitIdenticalResume(SmallConfig(shards, p),
                               EvenStops(6 * kMillisecond, 3), /*cut=*/1);
    }
  }
}

TEST(CheckpointTest, ResumeMatchesWithThreadPools) {
  // The same checkpoint gate with real parallelism: shard execution order
  // inside a window must not leak into the serialized state.
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    ExpectBitIdenticalResume(SmallConfig(4, Profile::kLossy),
                             EvenStops(6 * kMillisecond, 3), /*cut=*/1,
                             &pool);
  }
}

TEST(CheckpointTest, PoolAndInlineRunsFingerprintEqual) {
  // Pool-dependent telemetry (the count of windows fanned over the pool,
  // 0 inline) stays out of the blob, so one world at one barrier
  // fingerprints the same whether its shards ran inline or on a pool.
  const ChurnConfig cfg = SmallConfig(2, Profile::kLossy);
  const std::vector<Tick> stops = EvenStops(4 * kMillisecond, 4);
  ThreadPool pool(1);
  ChurnWorkload inline_run(cfg);
  ChurnWorkload pooled(cfg);
  inline_run.Start();
  pooled.Start();
  RunSchedule(inline_run, stops);
  RunSchedule(pooled, stops, &pool);
  EXPECT_EQ(inline_run.psim().gang_windows(), 0u);
  EXPECT_GT(pooled.psim().gang_windows(), 0u);
  EXPECT_EQ(inline_run.Fingerprint(), pooled.Fingerprint());
}

TEST(CheckpointTest, ResumeMatchesPerAckMode) {
  TcpSocket::SetBatchedAckMode(false);
  ExpectBitIdenticalResume(SmallConfig(2, Profile::kLossy),
                           EvenStops(6 * kMillisecond, 3), /*cut=*/1);
  TcpSocket::SetBatchedAckMode(true);
  ExpectBitIdenticalResume(SmallConfig(2, Profile::kLossy),
                           EvenStops(6 * kMillisecond, 3), /*cut=*/1);
}

// Golden fingerprints: the FNV-1a of the blob of three small 2-shard
// worlds at a fixed stop schedule, one per impairment profile. Any change
// to the encoding — a field added, dropped, reordered or resized, or the
// writer emitting different bytes — moves these constants. A deliberate
// format change must bump CheckpointWriter::kVersion and re-record them.
TEST(CheckpointTest, GoldenFingerprints) {
  struct Golden {
    Profile profile;
    std::uint64_t fingerprint;
  };
  const Golden goldens[] = {
      {Profile::kClean, 0x068bcb2888f783ceULL},
      {Profile::kLossy, 0x4144fd032bc7adfbULL},
      {Profile::kChaos, 0x597b22953c563d0cULL},
  };
  EXPECT_EQ(CheckpointWriter::kVersion, 2u);
  for (const Golden& g : goldens) {
    ChurnWorkload w(SmallConfig(2, g.profile));
    w.Start();
    RunSchedule(w, EvenStops(6 * kMillisecond, 3));
    EXPECT_EQ(w.Fingerprint(), g.fingerprint)
        << "profile " << static_cast<int>(g.profile) << ": 0x" << std::hex
        << w.Fingerprint();
  }
}

// Reference encoder: an append-per-field writer (vector insert and
// push_back), the straightforward form of the encoding. The bump writer
// must emit exactly its bytes.
class ReferenceWriter {
 public:
  void U8(std::uint8_t v) { buf.push_back(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(std::uint32_t v) { Raw(&v, sizeof v); }
  void U64(std::uint64_t v) { Raw(&v, sizeof v); }
  void I64(std::int64_t v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Tag(std::uint32_t tag) { U32(tag); }

  std::vector<std::uint8_t> buf;

 private:
  void Raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf.insert(buf.end(), b, b + n);
  }
};

// A record of every field type with random content, the same for every
// writer given the same seed. The reference writer spells a Pod run out
// as its fields.
template <typename W>
void WriteRandomRecord(W& w, std::uint64_t seed, int fields) {
  Rng rng(seed);
  for (int i = 0; i < fields; ++i) {
    switch (rng.UniformInt(0, 8)) {
      case 0:
        w.U8(static_cast<std::uint8_t>(rng.Next()));
        break;
      case 1:
        w.Bool(rng.Chance(0.5));
        break;
      case 2:
        w.U32(static_cast<std::uint32_t>(rng.Next()));
        break;
      case 3:
        w.U64(rng.Next());
        break;
      case 4:
        w.I64(static_cast<std::int64_t>(rng.Next()));
        break;
      case 5:
        w.F64(rng.UniformDouble(-1e9, 1e9));
        break;
      case 6: {
        std::string s(static_cast<std::size_t>(rng.UniformInt(0, 300)), '\0');
        for (char& c : s) c = static_cast<char>(rng.Next());
        w.Str(s);
        break;
      }
      case 7:
        w.Tag(static_cast<std::uint32_t>(rng.Next()));
        break;
      case 8: {
        std::uint64_t words[4];
        for (std::uint64_t& x : words) x = rng.Next();
        if constexpr (std::is_same_v<W, CheckpointWriter>) {
          w.Pod(words);
        } else {
          for (std::uint64_t x : words) w.U64(x);
        }
        break;
      }
    }
  }
}

TEST(CheckpointWriterTest, MatchesReferenceEncoderForEverySizeHint) {
  constexpr int kFields = 3000;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    ReferenceWriter ref;
    WriteRandomRecord(ref, seed, kFields);
    const std::size_t total = ref.buf.size();
    ASSERT_GT(total, 10000u);

    // No hint, hints too small (so the writer grows mid-record, at many
    // offsets into whatever field straddles the end), exact, oversized.
    std::vector<std::size_t> hints = {0, 1, 3, total - 1, total, total + 1,
                                      4 * total};
    for (std::size_t k = 0; k < 16; ++k) hints.push_back(total / 2 + k);
    for (std::size_t hint : hints) {
      CheckpointWriter w(hint);
      WriteRandomRecord(w, seed, kFields);
      EXPECT_EQ(w.size(), total);
      const std::vector<std::uint8_t> blob = w.TakeBlob();
      EXPECT_EQ(blob, ref.buf) << "seed " << seed << " hint " << hint;
      EXPECT_EQ(blob.size(), total) << "hint " << hint;
      // A hint that covers the record sizes the blob once: no growth.
      if (hint >= total) {
        EXPECT_EQ(blob.capacity(), std::bit_ceil(hint));
      }
    }
  }
}

TEST(CheckpointWriterTest, TakeBlobLeavesAnEmptyReusableWriter) {
  CheckpointWriter w(64);
  w.U64(7);
  EXPECT_EQ(w.TakeBlob().size(), 8u);
  EXPECT_EQ(w.size(), 0u);
  w.U32(9);
  EXPECT_EQ(w.TakeBlob(), (std::vector<std::uint8_t>{9, 0, 0, 0}));
}

TEST(CheckpointTest, BackToBackSavesAreIdentical) {
  // The first save grows from empty; the second is sized by the first.
  ChurnWorkload w(SmallConfig(2, Profile::kChaos));
  w.Start();
  RunSchedule(w, EvenStops(4 * kMillisecond, 2));
  const std::vector<std::uint8_t> first = w.SaveCheckpoint();
  const std::vector<std::uint8_t> second = w.SaveCheckpoint();
  EXPECT_EQ(second, first);
}

// A blob from a small world at a fixed barrier, for the reader failures.
std::vector<std::uint8_t> SmallBlob() {
  ChurnWorkload w(SmallConfig(1, Profile::kClean));
  w.Start();
  w.RunTo(2 * kMillisecond);
  return w.SaveCheckpoint();
}

TEST(CheckpointReaderDeathTest, TagMismatchNamesBothTagsAndTheOffset) {
  // Magic and version take bytes 0-7; the churn world tag "CHRN" is
  // stored little-endian at 8-11, so byte 8 is its last character.
  std::vector<std::uint8_t> blob = SmallBlob();
  ASSERT_EQ(blob[8], 'N');
  blob[8] = 'X';
  EXPECT_DEATH(
      {
        ChurnWorkload w(SmallConfig(1, Profile::kClean));
        w.RestoreCheckpoint(blob);
      },
      "tag mismatch at offset 8: expected 'CHRN' \\(0x4348524e\\), found "
      "'CHRX' \\(0x43485258\\)");
}

TEST(CheckpointReaderDeathTest, TruncatedBlobNamesTheOffset) {
  std::vector<std::uint8_t> blob = SmallBlob();
  blob.resize(blob.size() / 2);
  const std::string size = std::to_string(blob.size());
  EXPECT_DEATH(
      {
        ChurnWorkload w(SmallConfig(1, Profile::kClean));
        w.RestoreCheckpoint(blob);
      },
      "read of [0-9]+ byte\\(s\\) at offset [0-9]+ runs past the end of the " +
          size + "-byte blob");
}

TEST(CheckpointReaderDeathTest, ReaderReportsExactOffsets) {
  const std::vector<std::uint8_t> blob = {1, 2, 3, 4, 5, 6};
  EXPECT_DEATH(
      {
        CheckpointReader r(blob);
        r.U32();
        r.U32();
      },
      "read of 4 byte\\(s\\) at offset 4 runs past the end of the 6-byte "
      "blob");
  EXPECT_DEATH(
      {
        CheckpointReader r(blob);
        r.U8();
        r.ExpectTag(0x53494d20);  // "SIM "
      },
      "tag mismatch at offset 1: expected 'SIM ' \\(0x53494d20\\), found "
      "'....' \\(0x05040302\\)");
}

// Egress state that contradicts itself: the queue's staged regions are a
// prefix of its resident packets, and the port transmits exactly while
// its queue has a packet in service. Both loads reject a blob that breaks
// this before touching anything downstream of it.

TEST(CheckpointReaderDeathTest, QueueRejectsStagedRegionsPastItsPackets) {
  // Region header: 2 propagating + serving, over only 2 resident packets.
  CheckpointWriter w;
  w.U64(2);
  w.Bool(true);
  w.U64(2);
  const std::vector<std::uint8_t> blob = w.TakeBlob();
  EXPECT_DEATH(
      {
        DropTailEcnQueue q(1 << 20, 0);
        CheckpointReader r(blob);
        q.LoadState(r);
      },
      "inconsistent state at offset 17: egress queue stages 2 propagating "
      "\\+ 1 serving packet\\(s\\) but holds only 2");
  // More propagating packets than resident ones.
  w.U64(3);
  w.Bool(false);
  w.U64(1);
  const std::vector<std::uint8_t> blob2 = w.TakeBlob();
  EXPECT_DEATH(
      {
        DropTailEcnQueue q(1 << 20, 0);
        CheckpointReader r(blob2);
        q.LoadState(r);
      },
      "egress queue stages 3 propagating \\+ 0 serving packet\\(s\\) but "
      "holds only 1");
}

class DiscardSink : public PacketSink {
 public:
  void Deliver(const Packet&) override {}
};

/// The leading fields of an EgressPort blob: a one-packet queue (in
/// service or not), the RED stream, and the transmitter flag.
std::vector<std::uint8_t> PortBlobPrefix(bool in_service, bool transmitting) {
  const LinkConfig config;
  DropTailEcnQueue q(config.buffer_bytes, config.ecn_threshold);
  Packet pkt;
  pkt.payload = static_cast<std::int32_t>(kMss);
  EXPECT_TRUE(q.Enqueue(pkt));
  if (in_service) q.BeginService();
  CheckpointWriter w;
  q.SaveState(w);
  std::uint64_t red_state[4];
  Rng(0).SaveState(red_state);
  for (std::uint64_t v : red_state) w.U64(v);
  w.Bool(transmitting);
  return w.TakeBlob();
}

void LoadPort(const std::vector<std::uint8_t>& blob) {
  Simulator sim;
  DiscardSink sink;
  EgressPort port(sim, LinkConfig{}, sink);
  CheckpointReader r(blob);
  port.LoadState(r);
}

TEST(CheckpointReaderDeathTest, PortRejectsTransmitterQueueMismatch) {
  const std::vector<std::uint8_t> idle_wire = PortBlobPrefix(true, false);
  const std::string idle_offset = std::to_string(idle_wire.size());
  EXPECT_DEATH(LoadPort(idle_wire),
               "inconsistent state at offset " + idle_offset +
                   ": egress port transmitting=0 but its queue has a packet "
                   "in service");
  const std::vector<std::uint8_t> empty_wire = PortBlobPrefix(false, true);
  EXPECT_DEATH(LoadPort(empty_wire),
               "egress port transmitting=1 but its queue has no packet in "
               "service");
}

// The headline satellite: an impaired N=1400 churn run saved at 50
// pseudo-random barrier ticks; every save restores and resumes to a final
// state bit-identical to the uninterrupted reference.
TEST(CheckpointTest, FiftyRandomSavePointsN1400) {
  const ChurnConfig cfg = SmallConfig(2, Profile::kLossy, /*target=*/1400);
  constexpr Tick kEnd = 10 * kMillisecond;
  constexpr int kSaves = 50;

  // 50 distinct random ticks in (0, kEnd), sorted: they double as the
  // shared stop schedule, so every save lands on a barrier both runs hit.
  Rng rng(0x51ee9);
  std::vector<Tick> stops;
  while (stops.size() < kSaves) {
    const Tick t = 1 + rng.UniformTick(kEnd - 1);
    bool dup = false;
    for (Tick s : stops) dup |= (s == t);
    if (!dup) stops.push_back(t);
  }
  std::sort(stops.begin(), stops.end());
  stops.push_back(kEnd);

  ChurnWorkload ref(cfg);
  ref.Start();
  RunSchedule(ref, stops);
  const std::uint64_t want = ref.Fingerprint();
  ASSERT_GT(ref.Stats().flows_completed, 100u);

  // One saving run captures all 50 blobs in a single pass.
  ChurnWorkload saver(cfg);
  saver.Start();
  std::vector<std::vector<std::uint8_t>> blobs;
  for (std::size_t i = 0; i + 1 < stops.size(); ++i) {
    saver.RunTo(stops[i]);
    blobs.push_back(saver.SaveCheckpoint());
  }

  for (std::size_t cut = 0; cut < blobs.size(); ++cut) {
    ChurnWorkload resumed(cfg);
    resumed.RestoreCheckpoint(blobs[cut]);
    for (std::size_t i = cut + 1; i < stops.size(); ++i) {
      resumed.RunTo(stops[i]);
    }
    ASSERT_EQ(resumed.Fingerprint(), want)
        << "save #" << cut << " at t=" << stops[cut] << " diverged";
  }
}

}  // namespace
}  // namespace dctcpp

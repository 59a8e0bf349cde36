// perfbench harness: runs one benchmark workload through the simulator's
// public entry points and prints one JSON object of raw per-call data on
// stdout. perfbench/run.py builds this file twice (plain and with
// DCTCPP_PROFILE=ON), runs it, and turns the raw data into metrics.
//
//   perfbench_harness --workload incast40|incast1400|churn --seed N
//                     --seconds T [--passes R] [--mode measure|check]
//                     [--quick]
//
// measure: full passes of timed calls, each with its set-up timings, until
//          at least R passes ran and T seconds have passed. An incast pass
//          cycles over the seeds N, N+1, ..., N+K-1; a churn pass is one
//          whole episode (build, prewarm, timed windows) on seed N. Every
//          repeat must reproduce its first run's digest.
// check:   one untimed pass over (a prefix of) the same simulated work —
//          the digests it prints are compared against a measure run's.
// --quick  shrinks every workload (for the benchmark's own test).
//
// Measure mode runs churn's shards on the calling thread (pool = nullptr):
// the profiler counts per thread, and a second busy thread made the timings
// depend on where the scheduler put it. Check mode runs them on a 1-thread
// pool, so comparing the two also checks that the shards' results do not
// depend on the pool.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dctcpp/util/log.h"
#include "dctcpp/util/profile.h"
#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/churn.h"
#include "dctcpp/workload/incast.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_LTO
#define PERFBENCH_LTO 0
#endif

namespace dctcpp {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ElapsedNs(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

/// FNV-1a over 64-bit words; doubles enter by bit pattern.
class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void Add(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Minimal JSON emitter: callers supply keys and values in order.
class Json {
 public:
  void Open(const char* key = nullptr) { Begin(key, '{'); }
  void Close() { End('}'); }
  void OpenList(const char* key) { Begin(key, '['); }
  void CloseList() { End(']'); }
  void Num(const char* key, double v) {
    Begin(key);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  }
  void Int(const char* key, std::uint64_t v) {
    Begin(key);
    out_ += std::to_string(v);
  }
  void Str(const char* key, const std::string& v) {
    Begin(key);
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') out_ += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out_ += c;
    }
    out_ += '"';
  }
  void Bool(const char* key, bool v) {
    Begin(key);
    out_ += v ? "true" : "false";
  }
  void Hex(const char* key, std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    Str(key, buf);
  }
  const std::string& str() const { return out_; }

 private:
  void Begin(const char* key) {
    if (!first_) out_ += ',';
    first_ = false;
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\":";
    }
  }
  void Begin(const char* key, char bracket) {
    Begin(key);
    out_ += bracket;
    first_ = true;
  }
  void End(char bracket) {
    out_ += bracket;
    first_ = false;
  }
  std::string out_;
  bool first_ = true;
};

/// Fixed reference work that tracks how fast the host runs right now. The
/// host is a VM shared with other tenants, and its speed drifts by up to
/// 1.6x over minutes. The harness runs one chunk after every timed call, so
/// run.py can scale each call's wall time by the speed of the host around
/// it. A chunk is event-queue and table work like the simulator's: a
/// binary heap of (time, id) pairs and hashed updates of a 256 KiB table.
/// Its cost does not depend on src/, so a change to the simulator moves
/// the calibrated times exactly as it moves the raw ones.
class Calibrator {
 public:
  Calibrator() : table_(kTableSize) { heap_.reserve(kHeapCap + 1); }

  /// Runs one chunk and returns its wall time in ns.
  std::int64_t Chunk() {
    const auto t0 = Clock::now();
    heap_.clear();
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < kOps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      heap_.emplace_back(x >> 20, i);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      if (heap_.size() > kHeapCap) {
        sink_ += heap_.front().first;
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        heap_.pop_back();
      }
      table_[(x * 0x9E3779B97F4A7C15ULL) >> (64 - kTableBits)] += x;
    }
    sink_ += table_[x & (kTableSize - 1)];
    return ElapsedNs(t0);
  }
  /// Runs the chunks that calibrate a set-up, just before it; returns
  /// their wall times.
  std::vector<std::int64_t> SetupChunks() {
    std::vector<std::int64_t> ns;
    for (int i = 0; i < kSetupChunks; ++i) ns.push_back(Chunk());
    return ns;
  }
  /// Folded into the output so the compiler cannot drop the work.
  std::uint64_t sink() const { return sink_; }

 private:
  static constexpr int kOps = 40000;
  static constexpr int kSetupChunks = 5;
  static constexpr std::size_t kHeapCap = 2048;
  static constexpr int kTableBits = 15;
  static constexpr std::size_t kTableSize = std::size_t{1} << kTableBits;
  std::vector<std::pair<std::uint64_t, int>> heap_;
  std::vector<std::uint64_t> table_;
  std::uint64_t sink_ = 0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int passes = 1;
  bool check = false;
  bool quick = false;
};

[[noreturn]] void Fail(const char* why) {
  std::fprintf(stderr, "perfbench_harness: %s\n", why);
  std::exit(1);
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "incast40|incast1400|churn --seed N --seconds T "
               "[--passes R] [--mode measure|check] [--quick]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--passes") {
      a.passes = std::atoi(value().c_str());
    } else if (flag == "--mode") {
      const std::string m = value();
      if (m != "measure" && m != "check") Usage("bad --mode");
      a.check = m == "check";
    } else if (flag == "--quick") {
      a.quick = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0.0)) Usage("--seconds must be positive");
  if (a.passes < 1) Usage("--passes must be at least 1");
  return a;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void EmitNs(Json& j, const char* key, const std::vector<std::int64_t>& ns) {
  j.OpenList(key);
  for (const std::int64_t v : ns) j.Int(nullptr, static_cast<std::uint64_t>(v));
  j.CloseList();
}

void EmitProfile(Json& j, const prof::Counters& c) {
  j.OpenList("cycles");
  for (int p = 0; p < prof::kNumPhases; ++p) j.Int(nullptr, c.cycles[p]);
  j.CloseList();
  j.OpenList("hits");
  for (int p = 0; p < prof::kNumPhases; ++p) j.Int(nullptr, c.hits[p]);
  j.CloseList();
}

void EmitEnvironment(Json& j, const Args& a) {
  j.Str("workload", a.workload);
  j.Str("mode", a.check ? "check" : "measure");
  j.Str("build_type", PERFBENCH_BUILD_TYPE);
  j.Bool("lto", PERFBENCH_LTO != 0);
  j.Bool("profiler", prof::kEnabled);
  j.OpenList("phase_names");
  for (int p = 0; p < prof::kNumPhases; ++p) {
    j.Str(nullptr, prof::kPhaseNames[p]);
  }
  j.CloseList();
}

// --- incast ---------------------------------------------------------------

struct IncastSpec {
  IncastConfig base;
  int distinct_seeds = 1;  ///< K: timed calls cycle over seed .. seed+K-1
  int check_seeds = 1;     ///< check mode runs the first this-many seeds
};

IncastSpec MakeIncastSpec(const std::string& name, bool quick) {
  IncastSpec s;
  if (name == "incast40") {
    // The paper's canonical DCTCP incast: 1 MiB per round split over 40
    // flows on 9 workers, clean links.
    s.base.protocol = Protocol::kDctcp;
    s.base.num_flows = 40;
    s.base.num_workers = 9;
    s.base.total_bytes = 1 * kMiB;
    s.base.rounds = quick ? 2 : 30;
  } else {
    // DCTCP+ at massive fan-in: 1400 flows, fixed 8 KiB per flow per
    // round, so the bottleneck drops and RTOs fire every round.
    s.base.protocol = Protocol::kDctcpPlus;
    s.base.num_flows = 1400;
    s.base.num_workers = 9;
    s.base.per_flow_bytes = 8 * kKiB;
    s.base.rounds = 1;
    s.base.time_limit = 120 * kSecond;
  }
  // 100 distinct calls per pass; run.py takes each at its fastest repeat.
  s.distinct_seeds = quick ? 3 : 100;
  s.check_seeds = quick ? 3 : 20;
  return s;
}

std::uint64_t IncastDigest(const IncastResult& r) {
  Digest d;
  d.Add(r.goodput_mbps);
  d.Add(static_cast<std::uint64_t>(r.fct_ms.count()));
  for (double q : {0.5, 0.9, 0.99, 1.0}) d.Add(r.fct_ms.Quantile(q));
  d.Add(r.rounds_completed);
  d.Add(r.timeouts);
  d.Add(r.floss_timeouts);
  d.Add(r.lack_timeouts);
  d.Add(r.fast_retransmits);
  d.Add(r.tracked_rounds_at_min_ece);
  d.Add(r.tracked_rounds_with_timeout);
  d.Add(r.tracked_floss);
  d.Add(r.tracked_lack);
  d.Add(r.bottleneck_drops);
  d.Add(r.bottleneck_marks);
  d.Add(static_cast<std::uint64_t>(r.bottleneck_max_queue));
  d.Add(r.flow_fairness);
  d.Add(r.events);
  d.Add(r.packets_forwarded);
  d.Add(r.sim_seconds);
  d.Add(static_cast<std::uint64_t>(r.hit_time_limit));
  d.Add(r.invariant_violations);
  d.Add(r.packets_originated);
  d.Add(r.packets_dropped);
  d.Add(r.packets_duplicated);
  d.Add(r.checksum_discards);
  return d.value();
}

/// Ledger sanity on a clean-link incast: nothing duplicated or corrupted,
/// no more packets retired than were born, the bottleneck's drops are a
/// subset of all drops.
bool IncastLedgerOk(const IncastResult& r) {
  return r.packets_duplicated == 0 && r.checksum_discards == 0 &&
         r.packets_dropped <= r.packets_originated &&
         r.bottleneck_drops <= r.packets_dropped &&
         r.packets_forwarded >= r.packets_originated;
}

void EmitIncastCall(Json& j, const IncastResult& r, std::uint64_t seed,
                    int rounds, std::int64_t wall_ns, std::int64_t ref_ns,
                    const prof::Counters* profile) {
  j.Open();
  j.Int("seed", seed);
  j.Int("wall_ns", static_cast<std::uint64_t>(wall_ns));
  j.Int("ref_ns", static_cast<std::uint64_t>(ref_ns));
  j.Hex("digest", IncastDigest(r));
  j.Int("rounds", static_cast<std::uint64_t>(rounds));
  j.Int("rounds_completed", r.rounds_completed);
  j.Int("packets", r.packets_forwarded);
  j.Int("events", r.events);
  j.Int("violations", r.invariant_violations);
  j.Bool("ledger_ok", IncastLedgerOk(r));
  j.Num("goodput_mbps", r.goodput_mbps);
  j.Int("timeouts", r.timeouts);
  j.Int("floss_timeouts", r.floss_timeouts);
  j.Int("fast_retransmits", r.fast_retransmits);
  j.Int("tracked_rounds_at_min_ece", r.tracked_rounds_at_min_ece);
  j.Int("drops", r.packets_dropped);
  j.Int("bottleneck_marks", r.bottleneck_marks);
  j.Int("max_queue_bytes", static_cast<std::uint64_t>(r.bottleneck_max_queue));
  j.Int("duplicates", r.packets_duplicated);
  j.Int("checksum_discards", r.checksum_discards);
  if (profile != nullptr) EmitProfile(j, *profile);
  j.Close();
}

void RunIncastWorkload(const Args& a, Json& j) {
  const IncastSpec spec = MakeIncastSpec(a.workload, a.quick);
  auto config_for = [&](int k) {
    IncastConfig c = spec.base;
    c.seed = a.seed + static_cast<std::uint64_t>(k);
    return c;
  };
  j.Int("distinct_seeds", static_cast<std::uint64_t>(spec.distinct_seeds));
  j.Int("threads", 1);

  if (a.check) {
    j.OpenList("calls");
    for (int k = 0; k < spec.check_seeds; ++k) {
      const IncastConfig c = config_for(k);
      const IncastResult r = RunIncast(c);
      EmitIncastCall(j, r, c.seed, c.rounds, 0, 0, nullptr);
    }
    j.CloseList();
    return;
  }

  // Set-up cost: the same seeds, each run stopped at its first tick, so
  // only topology, socket and arena construction is timed. Those runs end
  // at their time limit by design; silence the warning that reports it.
  std::vector<std::vector<std::int64_t>> setup_passes;
  std::vector<std::vector<std::int64_t>> setup_refs;
  Calibrator cal;
  auto setup_pass = [&] {
    setup_refs.push_back(cal.SetupChunks());
    const LogLevel log_level = GetLogLevel();
    SetLogLevel(LogLevel::kError);
    std::vector<std::int64_t>& pass = setup_passes.emplace_back();
    for (int k = 0; k < spec.distinct_seeds; ++k) {
      IncastConfig c = config_for(k);
      c.time_limit = 1;
      const auto t0 = Clock::now();
      const IncastResult r = RunIncast(c);
      pass.push_back(ElapsedNs(t0));
      if (r.rounds_completed != 0) Fail("set-up call ran past its first tick");
    }
    SetLogLevel(log_level);
  };

  // One untimed warm-up call lets the allocator and caches settle.
  (void)RunIncast(config_for(0));
  for (int i = 0; i < 4; ++i) (void)cal.Chunk();

  // Each pass is a set-up pass, then one timed call per seed, each followed
  // by a calibration chunk. Passes run until at least `passes` of them ran
  // and the time budget is spent; run.py keeps each seed's fastest
  // calibrated time over the first `passes` passes.
  j.OpenList("calls");
  const auto run_start = Clock::now();
  const std::int64_t budget_ns = static_cast<std::int64_t>(a.seconds * 1e9);
  for (int pass = 0; pass < a.passes || ElapsedNs(run_start) < budget_ns;
       ++pass) {
    setup_pass();
    for (int k = 0; k < spec.distinct_seeds; ++k) {
      const IncastConfig c = config_for(k);
      prof::Reset();
      const auto t0 = Clock::now();
      const IncastResult r = RunIncast(c);
      const std::int64_t wall_ns = ElapsedNs(t0);
      const prof::Counters profile = prof::Snapshot();
      const std::int64_t ref_ns = cal.Chunk();
      EmitIncastCall(j, r, c.seed, c.rounds, wall_ns, ref_ns,
                     prof::kEnabled ? &profile : nullptr);
    }
  }
  j.CloseList();
  j.OpenList("setup_ns");  // [pass][seed]
  for (const auto& pass : setup_passes) EmitNs(j, nullptr, pass);
  j.CloseList();
  j.OpenList("setup_ref_ns");  // [pass][chunk]
  for (const auto& refs : setup_refs) EmitNs(j, nullptr, refs);
  j.CloseList();
  j.Int("calibration_sink", cal.sink());
}

// --- churn ----------------------------------------------------------------

struct ChurnSpec {
  ChurnConfig cfg;
  Tick window = 1 * kMillisecond;
  int windows = 1;     ///< timed windows per episode
  int save_every = 1;  ///< SaveCheckpoint after every n-th window
};

ChurnSpec MakeChurnSpec(std::uint64_t seed, bool quick) {
  ChurnSpec s;
  ChurnConfig& c = s.cfg;
  c.fat_tree.k = quick ? 4 : 8;  // 16 / 128 hosts
  c.link.impairment.random_loss = 0.005;
  c.shards = 2;
  c.strategy = PartitionStrategy::kPod;
  c.protocol = Protocol::kDctcpPlus;
  c.seed = seed;
  c.target_live_flows = quick ? 400 : 10000;
  c.mean_lifetime = 20 * kMillisecond;
  c.prewarm = quick ? 4 * kMillisecond : 20 * kMillisecond;
  // 100 distinct windows per episode; run.py takes each at its fastest
  // repeat. windows is a multiple of save_every: the last window saves, so
  // the restore check covers the episode's final state.
  s.windows = quick ? 4 : 100;
  s.save_every = quick ? 2 : 5;
  return s;
}

struct PsimCounters {
  std::uint64_t sync_rounds = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross = 0;
  std::uint64_t deliveries = 0;
  std::vector<std::uint64_t> shard_events;

  static PsimCounters Of(ParallelSimulation& p) {
    PsimCounters c;
    c.sync_rounds = p.sync_rounds();
    c.windows = p.windows_run();
    c.cross = p.cross_shard_handoffs();
    c.deliveries = p.calendar_deliveries();
    for (int i = 0; i < p.shard_count(); ++i) {
      c.shard_events.push_back(p.shard_events(i));
    }
    return c;
  }
};

/// Merged-ledger sanity: packets retired (delivered + dropped) never
/// exceed packets born, checksum discards are a subset of drops, and a
/// loss-only fabric duplicates nothing.
bool ChurnLedgerOk(const NetworkInvariants::Ledger& l) {
  return l.delivered + l.dropped <= l.originated + l.duplicated &&
         l.checksum_discards <= l.dropped && l.duplicated == 0;
}

std::uint64_t ChurnWindowDigest(const ChurnStats& s,
                                const NetworkInvariants::Ledger& l) {
  Digest d;
  d.Add(s.flows_started);
  d.Add(s.flows_completed);
  d.Add(s.arrivals_dropped);
  d.Add(s.accepts_dropped);
  d.Add(static_cast<std::uint64_t>(s.live_flows));
  d.Add(static_cast<std::uint64_t>(s.peak_live));
  d.Add(static_cast<std::uint64_t>(s.bytes_received));
  d.Add(s.violations);
  d.Add(s.events_executed);
  d.Add(s.packets_forwarded);
  d.Add(l.originated);
  d.Add(l.duplicated);
  d.Add(l.delivered);
  d.Add(l.dropped);
  d.Add(l.checksum_discards);
  return d.value();
}

/// One churn episode: build + Start (timed as set-up), untimed prewarm,
/// `spec.windows` timed RunTo windows with periodic checkpoints, each
/// followed by a calibration chunk when `cal` is set, then a restore of the
/// last checkpoint into a fresh world. `timed` only marks the episode for
/// run.py; untimed episodes are warm-up or check runs.
void RunChurnEpisode(const ChurnSpec& spec, ThreadPool* pool, bool timed,
                     Calibrator* cal, Json& j) {
  j.Open();
  j.Bool("timed", timed);
  if (cal != nullptr) EmitNs(j, "setup_ref_ns", cal->SetupChunks());
  const auto t_setup = Clock::now();
  auto w = std::make_unique<ChurnWorkload>(spec.cfg);
  w->Start();
  j.Num("setup_s", static_cast<double>(ElapsedNs(t_setup)) * 1e-9);

  w->RunTo(spec.cfg.prewarm, pool);

  const ChurnStats s0 = w->Stats();
  const NetworkInvariants::Ledger l0 = w->psim().MergedLedger();
  const PsimCounters p0 = PsimCounters::Of(w->psim());
  Digest episode;
  episode.Add(ChurnWindowDigest(s0, l0));
  std::vector<std::uint8_t> blob;
  double blob_mb = 0.0;
  ChurnStats prev = s0;

  j.OpenList("windows");
  for (int i = 0; i < spec.windows; ++i) {
    const Tick deadline =
        spec.cfg.prewarm + static_cast<Tick>(i + 1) * spec.window;
    const bool save = (i + 1) % spec.save_every == 0;
    prof::Reset();
    const auto t0 = Clock::now();
    w->RunTo(deadline, pool);
    const std::int64_t run_ns = ElapsedNs(t0);
    const prof::Counters profile = prof::Snapshot();
    std::int64_t save_ns = 0;
    if (save) {
      const auto ts = Clock::now();
      blob = w->SaveCheckpoint();
      save_ns = ElapsedNs(ts);
      blob_mb = static_cast<double>(blob.size()) * 1e-6;
    }
    const std::int64_t ref_ns = cal != nullptr ? cal->Chunk() : 0;
    const ChurnStats s = w->Stats();
    const NetworkInvariants::Ledger l = w->psim().MergedLedger();
    episode.Add(ChurnWindowDigest(s, l));

    j.Open();
    j.Int("wall_ns", static_cast<std::uint64_t>(run_ns + save_ns));
    j.Int("save_ns", static_cast<std::uint64_t>(save_ns));
    j.Int("ref_ns", static_cast<std::uint64_t>(ref_ns));
    j.Int("packets", s.packets_forwarded - prev.packets_forwarded);
    j.Int("events", s.events_executed - prev.events_executed);
    j.Int("arrivals", (s.flows_started + s.arrivals_dropped) -
                          (prev.flows_started + prev.arrivals_dropped));
    j.Int("arrivals_dropped", s.arrivals_dropped - prev.arrivals_dropped);
    j.Int("accepts_dropped", s.accepts_dropped - prev.accepts_dropped);
    j.Int("bytes_received",
          static_cast<std::uint64_t>(s.bytes_received - prev.bytes_received));
    j.Int("violations", s.violations - prev.violations);
    j.Bool("ledger_ok", ChurnLedgerOk(l));
    if (prof::kEnabled) EmitProfile(j, profile);
    j.Close();
    prev = s;
  }
  j.CloseList();

  const PsimCounters p1 = PsimCounters::Of(w->psim());
  const NetworkInvariants::Ledger l1 = w->psim().MergedLedger();
  // The fingerprint stays out of the episode digest: the blob also holds
  // the coordinator's count of windows fanned over the pool, which is 0
  // when shards run inline, so it differs between pool and inline runs.
  const std::uint64_t want = w->Fingerprint();
  j.Hex("digest", episode.value());
  j.Hex("fingerprint", want);
  j.Num("checkpoint_mb", blob_mb);
  j.Num("sim_ms", ToMillis(static_cast<Tick>(spec.windows) * spec.window));
  j.Int("sync_rounds", p1.sync_rounds - p0.sync_rounds);
  j.Int("parallel_windows", p1.windows - p0.windows);
  j.Int("cross_shard_handoffs", p1.cross - p0.cross);
  j.Int("calendar_deliveries", p1.deliveries - p0.deliveries);
  j.OpenList("shard_events");
  for (std::size_t i = 0; i < p1.shard_events.size(); ++i) {
    j.Int(nullptr, p1.shard_events[i] - p0.shard_events[i]);
  }
  j.CloseList();
  j.Int("drops", l1.dropped - l0.dropped);
  j.Int("duplicates", l1.duplicated - l0.duplicated);
  j.Int("checksum_discards", l1.checksum_discards - l0.checksum_discards);
  j.Int("peak_live", static_cast<std::uint64_t>(prev.peak_live));
  j.Num("bytes_per_flow", w->MeasureFootprint().bytes_per_flow);
  w.reset();

  // Restore the last checkpoint into a fresh, never-started world: its
  // fingerprint must equal the saving world's.
  const auto t_restore = Clock::now();
  ChurnWorkload restored(spec.cfg);
  restored.RestoreCheckpoint(blob);
  j.Num("restore_ms", static_cast<double>(ElapsedNs(t_restore)) * 1e-6);
  j.Bool("restore_equal", restored.Fingerprint() == want);
  j.Close();
}

void RunChurnWorkload(const Args& a, Json& j) {
  const ChurnSpec spec = MakeChurnSpec(a.seed, a.quick);
  std::unique_ptr<ThreadPool> pool;
  if (a.check) pool = std::make_unique<ThreadPool>(1);
  j.Int("threads", a.check ? 2 : 1);

  // Episode 0 is untimed: in measure mode it warms the allocator (the
  // first world touches every page of its pools), in check mode it is the
  // whole run.
  j.OpenList("episodes");
  RunChurnEpisode(spec, pool.get(), /*timed=*/false, nullptr, j);
  if (a.check) {
    j.CloseList();
    return;
  }
  Calibrator cal;
  for (int i = 0; i < 4; ++i) (void)cal.Chunk();
  // Timed episodes repeat the same windows until at least `passes` of them
  // ran and the time budget is spent; run.py keeps each window's fastest
  // calibrated time over the first `passes` episodes.
  const auto run_start = Clock::now();
  const std::int64_t budget_ns = static_cast<std::int64_t>(a.seconds * 1e9);
  for (int pass = 0; pass < a.passes || ElapsedNs(run_start) < budget_ns;
       ++pass) {
    RunChurnEpisode(spec, pool.get(), /*timed=*/true, &cal, j);
  }
  j.CloseList();
  j.Int("calibration_sink", cal.sink());
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  if (a.workload != "incast40" && a.workload != "incast1400" &&
      a.workload != "churn") {
    Usage(("unknown workload " + a.workload).c_str());
  }
  Json j;
  j.Open();
  EmitEnvironment(j, a);
  if (a.workload == "churn") {
    RunChurnWorkload(a, j);
  } else {
    RunIncastWorkload(a, j);
  }
  j.Num("peak_rss_mb", PeakRssMb());
  j.Close();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace dctcpp

int main(int argc, char** argv) { return dctcpp::Main(argc, argv); }

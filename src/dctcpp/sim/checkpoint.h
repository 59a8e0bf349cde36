// Checkpoint/restore of a running simulation into a versioned binary blob.
//
// A checkpoint is taken at a *barrier*: a point where no event is mid-run
// — in practice right after Simulator::RunUntil / ParallelSimulation::
// RunUntil returns. At a barrier the scheduler's same-tick run-buffer is
// empty, no ACK-burst scope is open, and every in-flight packet sits in a
// serializable container (a port queue, the wire, a reorder hold, or a
// shard calendar), so the world's entire future is a pure function of the
// serialized state.
//
// Restore is a two-phase protocol over a FRESHLY BUILT world (same
// topology, same construction order, not yet started):
//
//  1. The workload hook re-creates its dynamic objects (live sockets,
//     pending flow events) and loads their state; sockets re-register
//     with their hosts, rebuilding the demux tables and port refcounts
//     exactly. Wheel events are re-armed with their *saved* insertion
//     sequences (TimerWheelScheduler::*WithSeq), so pop order — purely
//     (time, seq) — matches the saved run even though node indices differ.
//  2. Registered infrastructure clients (hosts, ports, switches) load
//     their scalar state in construction order — which deterministic
//     builders make identical across the two worlds. Host scalars load
//     after the workload phase, overwriting the socket-serial counter the
//     re-creation bumped.
//
// What is NOT serialized (reconstructed by building the world instead):
// topology, routing tables, link/impairment configuration, RNG stream id
// assignments, arena layout, FlatFlowTable probe layout, the demux
// one-entry cache, callbacks, and the flight recorder (observational
// only). Nor is pool-dependent or purely descriptive telemetry — the
// coordinator's count of windows fanned over a pool, and the arrival
// calendars' run/heap insert counts — which restarts at 0 after a
// restore. See DESIGN.md Sec. 13.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "dctcpp/util/assert.h"
#include "dctcpp/util/time.h"

namespace dctcpp {

struct Packet;

/// Fixed-width little-endian append-only buffer. Section tags are written
/// by convention before each component's fields so a drifted reader fails
/// loudly at the drift point instead of misparsing everything after it.
///
/// Each field write is a bounds check, a memcpy and a pointer bump into
/// storage the blob already owns; running out of room takes an
/// out-of-line, cold Grow. A writer built with a size hint (the previous
/// save's size) sizes the blob once up front, so a save that fits the
/// hint never reallocates. The hint changes only speed: the bytes written
/// are the same whatever it is.
class CheckpointWriter {
 public:
  static constexpr std::uint32_t kMagic = 0x44434b50;  // "DCKP"
  /// 2: the coordinator no longer writes its pool-window count, and
  /// arrival calendars write entries in (at, key) order.
  static constexpr std::uint32_t kVersion = 2;

  CheckpointWriter() = default;
  explicit CheckpointWriter(std::size_t size_hint) {
    if (size_hint > 0) Grow(size_hint);
  }
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  void U8(std::uint8_t v) { Raw(&v, sizeof v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(std::uint32_t v) { Raw(&v, sizeof v); }
  void U64(std::uint64_t v) { Raw(&v, sizeof v); }
  void I64(std::int64_t v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  /// Section tag: a 4-byte marker the reader must match exactly.
  void Tag(std::uint32_t tag) { U32(tag); }
  /// The object representation of `v` in one write. Only for a run whose
  /// in-memory layout is exactly its field-by-field encoding: no padding
  /// (checked here), and fields the caller has static_assert-ed to sit in
  /// encoding order at encoding width.
  template <typename T>
  void Pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(std::has_unique_object_representations_v<T>);
    Raw(&v, sizeof v);
  }

  /// Bytes written so far.
  std::size_t size() const {
    return static_cast<std::size_t>(p_ - buf_.data());
  }
  /// The written bytes, exactly size() long. Leaves the writer empty.
  std::vector<std::uint8_t> TakeBlob();

 private:
  void Raw(const void* p, std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n) [[unlikely]] Grow(n);
    std::memcpy(p_, p, n);
    p_ += n;
  }
  /// Makes room for at least `n` more bytes (doubling), keeping the
  /// written prefix. Out of line so the field writes stay small.
  __attribute__((noinline, cold)) void Grow(std::size_t n);

  std::vector<std::uint8_t> buf_;  ///< its size() is the room, not the bytes
  std::uint8_t* p_ = nullptr;      ///< next byte to write
  std::uint8_t* end_ = nullptr;    ///< buf_.data() + buf_.size()
};

/// Reader over a checkpoint blob. Out-of-bounds reads, tag mismatches and
/// fields that contradict each other abort: a checkpoint is trusted
/// same-version data, not untrusted input. Before aborting they report
/// what was expected and the byte offset.
class CheckpointReader {
 public:
  CheckpointReader(const std::uint8_t* data, std::size_t size)
      : begin_(data), p_(data), end_(data + size) {}
  explicit CheckpointReader(const std::vector<std::uint8_t>& blob)
      : CheckpointReader(blob.data(), blob.size()) {}

  std::uint8_t U8() {
    if (p_ == end_) [[unlikely]] FailOutOfBounds(1);
    return *p_++;
  }
  bool Bool() { return U8() != 0; }
  std::uint32_t U32() {
    std::uint32_t v;
    Raw(&v, sizeof v);
    return v;
  }
  std::uint64_t U64() {
    std::uint64_t v;
    Raw(&v, sizeof v);
    return v;
  }
  std::int64_t I64() {
    std::int64_t v;
    Raw(&v, sizeof v);
    return v;
  }
  double F64() {
    double v;
    Raw(&v, sizeof v);
    return v;
  }
  std::string Str() {
    const std::uint32_t n = U32();
    if (static_cast<std::size_t>(end_ - p_) < n) [[unlikely]] {
      FailOutOfBounds(n);
    }
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }
  void ExpectTag(std::uint32_t tag) {
    const std::uint32_t got = U32();
    if (got != tag) [[unlikely]] FailTag(tag, got);
  }
  bool AtEnd() const { return p_ == end_; }

  /// Aborts on fields read so far that cannot belong together, reporting
  /// the offset just past them and the printf-formatted reason. Callers
  /// branch here only when a consistency check fails.
  [[noreturn]] __attribute__((noinline, cold, format(printf, 2, 3))) void
  FailInconsistent(const char* fmt, ...) const;

 private:
  void Raw(void* out, std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n) [[unlikely]] {
      FailOutOfBounds(n);
    }
    std::memcpy(out, p_, n);
    p_ += n;
  }
  // Out-of-line failure reports; the read path only branches to them.
  [[noreturn]] __attribute__((noinline, cold)) void FailOutOfBounds(
      std::size_t n) const;
  [[noreturn]] __attribute__((noinline, cold)) void FailTag(
      std::uint32_t want, std::uint32_t got) const;

  const std::uint8_t* begin_;
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// Infrastructure component with checkpointable state. Hosts, egress ports
/// and switches register with their Simulator at construction; save and
/// load both walk the registry in registration order, which deterministic
/// topology builders make identical between the saved and restored worlds.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual void SaveState(CheckpointWriter& w) const = 0;
  virtual void LoadState(CheckpointReader& r) = 0;
};

/// Workload-side serialization: the simulation engine knows nothing about
/// flows, so the workload driver supplies the section that re-creates its
/// dynamic objects (live sockets, pending arrivals/departures) on restore.
/// Called once per shard, inside that shard's blob section, before the
/// shard's infrastructure clients load.
class CheckpointHooks {
 public:
  virtual ~CheckpointHooks() = default;
  virtual void SaveWorkload(CheckpointWriter& w, int shard) const = 0;
  virtual void RestoreWorkload(CheckpointReader& r, int shard) = 0;
};

/// Field-by-field packet serialization (never memcpy: padding bytes are
/// indeterminate and would break blob comparison).
void SavePacket(CheckpointWriter& w, const Packet& pkt);
Packet LoadPacket(CheckpointReader& r);

}  // namespace dctcpp

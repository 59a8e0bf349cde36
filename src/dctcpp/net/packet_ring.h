// Flat ring buffer — the datapath FIFO.
//
// An egress port's queued, serializing and propagating packets all leave
// in strict FIFO order, so they share one ring (DropTailEcnQueue holds it
// and stages the regions, see net/queue.h), and the container only ever
// needs push-back / indexed access / pop-front. PacketRing provides
// exactly that over one contiguous power-of-two array: no per-block
// bookkeeping (std::deque), no allocation in steady state, and PushBack
// returns a reference to the stored slot so callers can finish building
// the packet (ECN marking) in place instead of copying twice. The port
// keeps its delivery times in a Ring<Tick>.
#pragma once

#include <cstddef>
#include <vector>

#include "dctcpp/net/packet.h"
#include "dctcpp/util/assert.h"

namespace dctcpp {

template <typename T>
class Ring {
 public:
  /// `initial_capacity` is rounded up to a power of two; the ring grows by
  /// doubling when full.
  explicit Ring(std::size_t initial_capacity = 16) {
    std::size_t cap = 1;
    while (cap < initial_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  bool Empty() const { return count_ == 0; }
  std::size_t Size() const { return count_; }
  std::size_t Capacity() const { return mask_ + 1; }

  /// Appends a copy of `v` and returns the stored slot (valid until the
  /// next PushBack, which may grow the ring).
  T& PushBack(const T& v) {
    if (count_ > mask_) Grow();
    T& slot = slots_[(head_ + count_) & mask_];
    slot = v;
    ++count_;
    return slot;
  }

  const T& Front() const {
    DCTCPP_DASSERT(count_ > 0);
    return slots_[head_];
  }

  void PopFront() {
    DCTCPP_DASSERT(count_ > 0);
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  /// The i-th resident entry in FIFO order (0 = Front). The staged
  /// egress pipeline addresses its serving/propagating regions this way;
  /// the reference stays valid until the next PushBack (which may grow
  /// the ring) or PopFront.
  T& At(std::size_t i) {
    DCTCPP_DASSERT(i < count_);
    return slots_[(head_ + i) & mask_];
  }
  const T& At(std::size_t i) const {
    DCTCPP_DASSERT(i < count_);
    return slots_[(head_ + i) & mask_];
  }

  /// Visits every resident entry in FIFO order (audits and checkpoints
  /// only — the datapath itself never iterates).
  template <typename F>
  void ForEach(F&& fn) const {
    for (std::size_t i = 0; i < count_; ++i) {
      fn(slots_[(head_ + i) & mask_]);
    }
  }

 private:
  void Grow() {
    std::vector<T> bigger(slots_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = slots_[(head_ + i) & mask_];
    }
    slots_.swap(bigger);
    mask_ = slots_.size() - 1;
    head_ = 0;
  }

  // The capacity mask is cached rather than derived from slots_.size() on
  // every operation: with 64-byte Packets the slot index is then one
  // add+and+shift, where reloading the vector size put a load and a
  // non-constant multiply on the fifo_ring micro's critical path.
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

using PacketRing = Ring<Packet>;

}  // namespace dctcpp

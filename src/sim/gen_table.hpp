// gen_table.hpp — generation-stamped id issuance for the LadderQueue.
//
// A slot's generation bumps every time its id dies, so a stale EventId
// can never match a later event, and cancel() is an O(1) stamp
// comparison.  The table stores NO callback — the ladder keeps
// callbacks in its own slot-indexed column, scattered at schedule and
// batch-gathered at drain — and shrinks to 4 bytes per slot.  That
// density is the point: the only dependent random access on the
// ladder's pop path is the liveness stamp check, and at city scale the
// whole stamp array still fits in L2 where a callback-carrying table
// would not.
//
// Extinction-run compaction: a city-scale run ends with a handful of
// live events rattling around a table sized for the peak, so when
// enough of the table is free and the free region is the tail, the
// table trims itself.  Trimmed slots remember their generation
// high-water mark (4 bytes each) so a re-grown slot resumes the
// generation sequence instead of restarting at 1 — otherwise an id from
// before the trim could alias a new event.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/event.hpp"

namespace caem::sim {

/// Payload-free generation stamps: 4 bytes per slot (bit 31 = on the
/// free list, bits 0..30 = generation, so ids use 31 generation bits).
/// An id is live iff its stamp equals the slot's current word — a free
/// slot's set bit 31 can never match an issued stamp, and every
/// kill/release bumps the generation before the slot can be reissued.
///
/// kill() recycles the slot immediately: the
/// structure's leftover entry carries the full dead id and is dropped
/// on contact via a stamp mismatch, so two entries may reference the
/// same slot but never the same id.
class GenTable {
 public:
  /// Issue a slot; its id is valid until kill()/release()/clear().
  std::uint32_t acquire() {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      gen_[slot] &= kGenMask;  // off the free list, generation unchanged
    } else {
      if (gen_.size() > std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("GenTable: slot table overflow");
      }
      gen_.push_back(1);
      slot = static_cast<std::uint32_t>(gen_.size() - 1);
      if (slot < retired_generation_.size() && retired_generation_[slot] != 0) {
        gen_[slot] = retired_generation_[slot];
      }
    }
    return slot;
  }

  [[nodiscard]] EventId id_at(std::uint32_t slot) const noexcept {
    return make_id(slot, gen_[slot] & kGenMask);
  }

  /// Stamp check: the single random memory access on the pop path.
  [[nodiscard]] bool live(EventId id) const noexcept {
    const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    return slot < gen_.size() && gen_[slot] == static_cast<std::uint32_t>(id >> 32);
  }

  /// Warm the stamp's cache line ahead of a live() check (no-op for
  /// out-of-range slots; purely a hint, no architectural effect).
  void prefetch(EventId id) const noexcept {
    const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    if (slot < gen_.size()) __builtin_prefetch(&gen_[slot]);
  }

  /// O(1) cancel: invalidate the id and recycle the slot now.  Returns
  /// false for invalid/stale ids.
  bool kill(EventId id) noexcept {
    const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    if (id == kInvalidEventId || !live(id)) return false;
    release(slot);
    return true;
  }

  /// Recycle a live slot (its event just fired).  Generation 0 is
  /// skipped on wrap (make_id(0, 0) would equal kInvalidEventId).
  void release(std::uint32_t slot) noexcept {
    std::uint32_t g = (gen_[slot] & kGenMask) + 1;
    if (g > kGenMask) g = 1;
    gen_[slot] = g | kFreeBit;
    free_slots_.push_back(slot);
    maybe_compact();
  }

  /// Drop every slot; all outstanding ids become stale forever (bumped
  /// generations are parked in the retired high-water list).
  void clear() noexcept {
    if (retired_generation_.size() < gen_.size()) {
      retired_generation_.resize(gen_.size(), 0);
    }
    for (std::size_t i = 0; i < gen_.size(); ++i) {
      std::uint32_t g = (gen_[i] & kGenMask) + 1;
      if (g > kGenMask) g = 1;
      retired_generation_[i] = g;
    }
    gen_.clear();
    free_slots_.clear();
    compact_watermark_ = kCompactMinRun;
  }

  /// Physical table size, including free slots (diagnostics/tests).
  [[nodiscard]] std::size_t capacity() const noexcept { return gen_.size(); }

  /// Heap bytes held (capacities), for footprint diagnostics.
  [[nodiscard]] std::size_t retained_bytes() const noexcept {
    return (gen_.capacity() + free_slots_.capacity() + retired_generation_.capacity()) *
           sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kFreeBit = 0x80000000u;
  static constexpr std::uint32_t kGenMask = 0x7FFFFFFFu;
  static constexpr std::size_t kCompactMinRun = 1024;

  [[nodiscard]] static EventId make_id(std::uint32_t slot, std::uint32_t generation) noexcept {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  // Amortized-O(1) trigger: an attempt runs only after ~size/4 more
  // releases than the last attempt, and a pass only trims when the
  // free tail is at least a quarter of the table, so walk + rebuild
  // costs are covered by the releases between attempts.
  void maybe_compact() noexcept {
    if (free_slots_.size() < compact_watermark_) return;
    std::size_t run = 0;
    while (run < gen_.size() && (gen_[gen_.size() - 1 - run] & kFreeBit) != 0) ++run;
    if (run >= kCompactMinRun && run * 4 >= gen_.size()) {
      if (retired_generation_.size() < gen_.size()) {
        retired_generation_.resize(gen_.size(), 0);
      }
      while (run-- > 0) {
        retired_generation_[gen_.size() - 1] = gen_.back() & kGenMask;
        gen_.pop_back();
      }
      const std::size_t limit = gen_.size();
      std::erase_if(free_slots_, [limit](std::uint32_t s) { return s >= limit; });
    }
    compact_watermark_ =
        free_slots_.size() + std::max<std::size_t>(kCompactMinRun, gen_.size() / 4);
  }

  std::vector<std::uint32_t> gen_;  // generation | free bit, per slot
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> retired_generation_;  // high-water generations of trimmed slots
  std::size_t compact_watermark_ = kCompactMinRun;
};

}  // namespace caem::sim

// slot_table.hpp — callback-carrying slot table for the heap oracle.
//
// The heap EventQueue keeps its sortable entries as 24-byte PODs and
// parks the type-erased callback here, indexed by `slot`.  Same id
// contract as sim::GenTable: a slot's generation bumps every time its
// id dies, so a stale EventId can never match a later event, and a
// trimmed tail remembers its generation high-water mark.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/event.hpp"
#include "sim/event_fn.hpp"

namespace caem::sim {

class SlotTable {
 public:
  /// Store a callback; returns the slot index.  The slot stays owned by
  /// the caller's timing entry until release().
  std::uint32_t acquire(EventFn fn) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      if (slots_.size() > std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("SlotTable: slot table overflow");
      }
      slots_.emplace_back();
      slot = static_cast<std::uint32_t>(slots_.size() - 1);
      if (slot < retired_generation_.size() && retired_generation_[slot] != 0) {
        slots_[slot].generation = retired_generation_[slot];
      }
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.live = true;
    s.free = false;
    return slot;
  }

  /// Current id of an owned (live or tombstoned) slot.
  [[nodiscard]] EventId id_at(std::uint32_t slot) const noexcept {
    return make_id(slot, slots_[slot].generation);
  }

  [[nodiscard]] bool is_live(std::uint32_t slot) const noexcept { return slots_[slot].live; }

  /// O(1) cancel: mark the slot dead and drop its captured state.  The
  /// timing entry referencing it stays behind as a tombstone; the slot
  /// is recycled only when that entry surfaces (release()).  Returns
  /// false for invalid/stale/already-dead ids.
  bool tombstone(EventId id) noexcept {
    const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    const std::uint32_t generation = static_cast<std::uint32_t>(id >> 32);
    if (id == kInvalidEventId || slot >= slots_.size()) return false;
    Slot& s = slots_[slot];
    if (!s.live || s.generation != generation) return false;
    s.live = false;
    s.fn.reset();
    return true;
  }

  /// Move the callback out (for firing).  Slot must be live.
  [[nodiscard]] EventFn take(std::uint32_t slot) noexcept { return std::move(slots_[slot].fn); }

  /// Recycle a slot once its timing entry has left the structure.
  /// Bumps the generation so outstanding ids go stale; generation 0 is
  /// skipped on wrap (make_id(0, 0) would equal kInvalidEventId).
  void release(std::uint32_t slot) noexcept {
    Slot& s = slots_[slot];
    s.live = false;
    s.free = true;
    s.fn.reset();
    if (++s.generation == 0) s.generation = 1;
    free_slots_.push_back(slot);
    maybe_compact();
  }

  /// Drop every slot.  All outstanding ids become stale forever: each
  /// slot's bumped generation is parked in the retired high-water list,
  /// so re-grown slots continue the sequence.
  void clear() noexcept {
    if (retired_generation_.size() < slots_.size()) {
      retired_generation_.resize(slots_.size(), 0);
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      std::uint32_t g = slots_[i].generation + 1;
      if (g == 0) g = 1;
      retired_generation_[i] = g;
    }
    slots_.clear();
    free_slots_.clear();
    compact_watermark_ = kCompactMinRun;
  }

  /// Physical table size, including free slots (diagnostics/tests).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    EventFn fn;
    std::uint32_t generation = 1;
    bool live = false;
    bool free = false;  // currently on the free list
  };

  // Don't bother compacting tables smaller than this, and require each
  // pass to reclaim at least this many slots.
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
    while (run < slots_.size() && slots_[slots_.size() - 1 - run].free) ++run;
    if (run >= kCompactMinRun && run * 4 >= slots_.size()) {
      if (retired_generation_.size() < slots_.size()) {
        retired_generation_.resize(slots_.size(), 0);
      }
      while (run-- > 0) {
        retired_generation_[slots_.size() - 1] = slots_.back().generation;
        slots_.pop_back();
      }
      const std::size_t limit = slots_.size();
      std::erase_if(free_slots_, [limit](std::uint32_t s) { return s >= limit; });
    }
    compact_watermark_ =
        free_slots_.size() + std::max<std::size_t>(kCompactMinRun, slots_.size() / 4);
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> retired_generation_;  // high-water generations of trimmed slots
  std::size_t compact_watermark_ = kCompactMinRun;
};

}  // namespace caem::sim

// event.hpp — the kernel's event vocabulary.
//
// The discrete-event engine needs exactly one thing from its timing
// structure (the LadderQueue): hand back live events in (time_s,
// sequence) order, with O(1) generation-safe cancellation.  These are
// the types that contract is written in: event ids, callbacks, a popped
// event, and the queue's lifetime op counters.
#pragma once

#include <cstdint>

#include "sim/event_fn.hpp"

namespace caem::sim {

/// Opaque handle to a scheduled event; value 0 is reserved as "invalid".
/// Encodes (generation << 32) | slot; generations start at 1 so no valid
/// id is ever 0.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Callback executed when an event fires.  Receives the firing time.
using EventCallback = EventFn;

/// An event removed from the pending set, ready to execute.
struct Fired {
  EventId id;
  double time_s;
  EventCallback callback;
};

/// Lifetime op counts for one pending set (diagnostics; never part of
/// simulation artifacts).  `tombstones_pruned` counts cancelled entries
/// physically removed by lazy deletion.
struct KernelCounters {
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t tombstones_pruned = 0;

  KernelCounters& operator+=(const KernelCounters& other) noexcept {
    scheduled += other.scheduled;
    fired += other.fired;
    cancelled += other.cancelled;
    tombstones_pruned += other.tombstones_pruned;
    return *this;
  }
};

}  // namespace caem::sim

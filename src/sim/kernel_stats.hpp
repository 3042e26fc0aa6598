// kernel_stats.hpp — process-wide kernel counter aggregation.
//
// Worker threads run many independent Simulators; progress lines and
// the serve daemon's /stats endpoint want one rolled-up view of how
// hard the kernel is working.  Each completed run folds its queue's
// KernelCounters into these process-global atomics (runs report on
// completion, not live — the numbers trail in-flight cells by design).
// Diagnostics only: never part of simulation artifacts.
#pragma once

#include "sim/event.hpp"

namespace caem::sim {

/// Fold one run's counters into the process-wide totals.  Thread-safe.
void add_kernel_totals(const KernelCounters& counters) noexcept;

/// Snapshot of the process-wide totals.  Thread-safe.
[[nodiscard]] KernelCounters kernel_totals() noexcept;

}  // namespace caem::sim

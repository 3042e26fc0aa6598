// packet.hpp — the unit of sensed data moving through the system.
#pragma once

#include <cstddef>
#include <cstdint>

namespace caem::queueing {

/// Why a packet left the system without being delivered.
enum class DropReason {
  kBufferOverflow,   ///< arrival found the buffer full
  kRetryExhausted,   ///< max retransmissions (6) exceeded
  kNodeDeath,        ///< the source node's battery depleted
  kEndOfRun,         ///< still queued when the simulation ended
  kUnreachable,      ///< no alive route to the sink within radio range
};

/// Number of DropReason values (sizes per-reason counters).
inline constexpr std::size_t kDropReasonCount = 5;

/// 32 B: the two 4-byte fields share one word.
struct Packet {
  std::uint64_t id = 0;        ///< globally unique, assigned at generation
  double created_s = 0.0;      ///< generation timestamp
  double payload_bits = 2048;  ///< application payload (Table II: 2 kbit)
  std::uint32_t source = 0;    ///< generating node
  std::uint32_t retries = 0;   ///< transmission attempts that failed so far
};

}  // namespace caem::queueing

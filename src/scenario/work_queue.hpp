// work_queue.hpp — crash-safe dynamic cell claiming for distributed sweeps.
//
// A static partition of a sweep makes its wall clock the slowest
// slice's wall clock: whoever draws the run-to-extinction cell drags the
// merge while every other process idles.  Worker mode instead keeps one
// shared queue that N cooperating `caem run --worker` processes drain
// by CLAIMING cells dynamically —
// the work-stealing answer to irregular workloads (arXiv:1605.00930),
// with the shared cache directory again serving as the only
// coordination substrate (no daemon, no socket: claims are files).
//
// Claim protocol, one file per in-flight cell:
//
//   <cache>/sweeps/<sweep digest>/claims/job_<index>.claim
//
// ACQUIRE   util::atomic_create_file — content is fully written to a
//           temp, then hard-linked into place.  link(2) fails if the
//           claim exists, so exactly ONE of N racing workers wins; the
//           losers observe a fresh foreign claim and move on to the
//           next cell.  (Publish-by-RENAME would silently replace a
//           racer's claim and let both believe they hold it.)
// LEASE     the claim records its epoch_ms and lease_ms; the holder
//           refreshes the stamp (rename-replace of its own file) while
//           it computes.  A claim whose stamp has aged past the lease
//           belongs to a crashed (or descheduled) worker.  The stamp is
//           wall clock compared across hosts, so skew within one lease
//           in either direction reads as healthy; a stamp more than one
//           lease in the FUTURE (fast-clock host, corrupt stamp) is
//           treated as stale too — otherwise it could never expire in
//           this process's frame and the cell would be unstealable.
// STEAL     delete the stale claim, then ACQUIRE normally.  The delete
//           must hit only the claim the stealer judged: by the time it
//           acts, a racing stealer may already have evicted that claim
//           and published a fresh one.  So each eviction first takes a
//           lock file named after the judged claim's bytes
//           (atomic_create_file: one of N racing stealers gets it),
//           re-reads the claim under the lock, and deletes it only if
//           the bytes still match.  A lock left by a stealer that
//           crashed mid-eviction is cleared once older than a lease.
// RELEASE   the holder deletes its claim after the cell's result is
//           durably stored in the cache.
//
// Completion is NEVER inferred from claims: a cell is done iff its
// result-cache entry exists (checked before any claim attempt), so a
// crashed worker's half-stored cells are skipped, not re-executed, and
// a worker killed at any point leaves at worst a stale claim that
// expires and is stolen — never an orphaned cell.  Duplicate execution
// is possible at the margins (a holder descheduled past its lease is
// stolen while still alive) and harmless: runs are deterministic
// functions of the cell key and cache stores are idempotent
// publish-by-rename.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace caem::scenario {

/// Parsed contents of one claim file.
struct ClaimInfo {
  std::string token;           ///< unique claimant id (host:pid:nonce)
  std::string host;
  std::uint64_t pid = 0;
  std::size_t job = 0;         ///< job index in the sweep
  std::uint64_t epoch_ms = 0;  ///< last acquire/refresh wall-clock stamp
  double lease_s = 0.0;        ///< staleness horizon the claimant announced
};

class ClaimBoard {
 public:
  /// @param cache_root  shared result-cache directory
  /// @param sweep       sweep digest (pins the job-index namespace)
  /// @param lease_s     staleness horizon for claims this board writes;
  ///                    must be > 0
  ClaimBoard(const std::string& cache_root, const std::string& sweep, double lease_s);

  enum class Claim {
    kWon,   ///< this board now holds the cell
    kBusy,  ///< a fresh foreign claim holds it — move on, repoll later
  };

  /// Try to claim `job`: acquire if unclaimed, steal first if the
  /// standing claim is stale or unreadable.  Never blocks on a healthy
  /// holder.
  [[nodiscard]] Claim try_claim(std::size_t job);

  /// Re-stamp this board's own claim on `job` (call periodically while
  /// executing a long cell so a healthy holder is never stolen from).
  void refresh(std::size_t job) const;

  /// Drop this board's claim on `job` (call after the cell's result is
  /// durably stored).
  void release(std::size_t job) const;

  /// Read the standing claim; std::nullopt when absent or unreadable.
  [[nodiscard]] std::optional<ClaimInfo> peek(std::size_t job) const;

  /// Delete the standing claim on `job` if, and only if, its bytes are
  /// still `judged` (the claim this board read and found stale or
  /// unreadable).  True when this call deleted it; false when a racing
  /// stealer got there first or the claim has since changed hands.
  [[nodiscard]] bool evict(std::size_t job, const std::string& judged);

  /// The lock file that serializes evictions of the claim `judged` on
  /// `job` (present only while an eviction is in flight, or after a
  /// stealer crashed holding it; cleared once older than a lease).
  [[nodiscard]] std::string eviction_lock_path(std::size_t job, const std::string& judged) const;

  [[nodiscard]] const std::string& token() const noexcept { return token_; }
  [[nodiscard]] const std::string& host() const noexcept { return host_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  /// Stale/corrupt claims this board has stolen (telemetry).
  [[nodiscard]] std::size_t stolen() const noexcept { return stolen_; }

  /// Wall-clock now in milliseconds since the epoch (the lease clock;
  /// wall-clock because leases must be comparable across processes).
  [[nodiscard]] static std::uint64_t now_ms();

 private:
  [[nodiscard]] std::string claim_path(std::size_t job) const;
  [[nodiscard]] std::string claim_body(std::size_t job) const;
  [[nodiscard]] std::optional<ClaimInfo> parse(const std::string& bytes, std::size_t job) const;

  std::string sweep_;
  std::string dir_;
  std::string token_;
  std::string host_;
  double lease_s_;
  std::size_t stolen_ = 0;
};

}  // namespace caem::scenario

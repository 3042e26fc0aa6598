// link_manager.hpp — per-pair channel bookkeeping for a whole network.
//
// Owns the node mobility models and one shared path-loss model, and
// creates Link objects lazily the first time a pair communicates.  Links
// are keyed on the unordered pair so both directions share one process
// (reciprocity).  All RNG streams are derived from the run's registry,
// making channel realisations reproducible and independent per pair —
// a link's draws depend only on (master seed, pair), never on creation
// order, so lazy materialisation is bit-identical to eager.
//
// City-scale storage: an open-addressed pair->index hash table (a mix
// plus a linear probe per lookup) over flat per-pair arrays.  With
// `radio_range_m` set, pairs beyond radio range are never materialised
// at all: snr_db answers kOutOfRangeSnrDb from the positions alone,
// which keeps the pair set O(N * neighbors) instead of O(N^2) on large
// fields.
//
// Round-scoped handles: a sensor talks to one CH for a whole LEACH
// round, so the network gives each node a RoundLink that resolves the
// pair once and then queries the Link directly.  When the round closes
// the handle releases the pair.  With a stateless fading model (Jakes,
// Rician) release evicts the Link (152 B plus a ~0.5 kB fading table);
// the pair keeps only its shadowing history, its last sample and draw
// count, in a 32 B record.  link() rebuilds the Link from the pair's
// streams "shadow/<lo>-<hi>" (advanced past the counted draws) and
// "fading/<lo>-<hi>" the next time the pair is resolved.  Evicted slots
// are reused, so resident Links are bounded by one round's members
// (plus callers that query outside a round), not by every pair the run
// has ever used.  Block fading draws its blocks in sequence, so its
// Links stay resident.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "channel/link.hpp"
#include "sim/rng_registry.hpp"
#include "util/chunked_array.hpp"

namespace caem::channel {

using NodeId = std::uint32_t;

/// Fading model families selectable per run (ablation C).
enum class FadingKind { kJakesRayleigh, kRician, kBlock };
inline constexpr const char* kFadingKindNames[] = {"jakes", "rician", "block"};

[[nodiscard]] const char* to_string(FadingKind kind) noexcept;

/// Parse "jakes" (alias "jakes-rayleigh"), "rician" or "block"; throws
/// std::invalid_argument on anything else.
[[nodiscard]] FadingKind fading_kind_from_string(const std::string& name);

/// Channel-wide configuration shared by every link in a run.
struct ChannelConfig {
  double path_loss_exponent = 3.0;   ///< log-distance exponent (obstructed field)
  double path_loss_ref_db = 40.0;    ///< loss at 1 m reference distance
  double shadowing_sigma_db = 4.0;   ///< macroscopic lognormal sigma
  double shadowing_tau_s = 3.0;      ///< 2-5 s macroscopic time scale (paper)
  double doppler_hz = 3.0;           ///< <1 m/s at ~900 MHz -> coherence ~140 ms
  FadingKind fading_kind = FadingKind::kJakesRayleigh;
  double rician_k = 3.0;             ///< only for FadingKind::kRician
  std::size_t jakes_oscillators = 16;
  /// Coherence-window SNR cache: evaluate the fading process at most
  /// once per 0.423/doppler_hz per link (within which the channel is
  /// flat by definition) instead of once per tone check.  Disable for
  /// exact per-query evaluation — bit-identical to the pre-cache code.
  bool snr_cache_enabled = true;
  /// Radio range cutoff in metres; 0 (the default) = unlimited, the
  /// paper's regime.  When > 0, snr_db for a pair farther apart than
  /// this returns kOutOfRangeSnrDb WITHOUT materialising a Link — links
  /// (and their RNG streams and fading state) exist only inside range.
  double radio_range_m = 0.0;
  /// Spatial-index bin size for cluster formation (see
  /// leach::form_clusters): 0 = auto, > 0 = forced bin, < 0 = forced
  /// brute-force scan.  All settings are bit-identical.
  double spatial_bin_m = 0.0;
};

class LinkManager {
 public:
  /// @param rng  registry of the owning run (kept by pointer; must outlive)
  LinkManager(ChannelConfig config, sim::RngRegistry* rng);
  // Links point at path_loss_, so the manager never moves.
  LinkManager(const LinkManager&) = delete;
  LinkManager& operator=(const LinkManager&) = delete;

  /// Register a node's (owned) mobility model; returns its NodeId, which
  /// is assigned densely in registration order.
  NodeId add_node(std::unique_ptr<MobilityModel> mobility);

  /// Convenience: register a static node.
  NodeId add_static_node(Vec2 position);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] MobilityModel& mobility(NodeId id) { return *nodes_.at(id); }

  /// The (shared, direction-free) link between two distinct nodes,
  /// created on first use and rebuilt from its memo after an eviction.
  /// Throws std::invalid_argument for a == b or unknown ids.  The
  /// reference stays valid until release() evicts the pair.
  [[nodiscard]] Link& link(NodeId a, NodeId b);

  /// The pair went idle: with a stateless fading model, memoise its
  /// shadowing history and evict its Link (the next link() rebuilds it
  /// bit-identically).  A no-op for block fading and for pairs that
  /// are not resident.
  void release(NodeId a, NodeId b) noexcept;

  /// Pairs ever materialised, and how many of them hold a Link in
  /// memory now; the rest are memoised (digest-neutral diagnostics).
  [[nodiscard]] std::size_t pair_count() const noexcept { return pairs_.size(); }
  [[nodiscard]] std::size_t resident_link_count() const noexcept {
    return pool_.size() - free_slots_.size();
  }

  /// Is the pair within the configured radio range at `time_s`?  Always
  /// true when no cutoff is configured.
  [[nodiscard]] bool in_range(NodeId a, NodeId b, double time_s);

  /// Instantaneous SNR of the a<->b channel under `budget`;
  /// kOutOfRangeSnrDb (and no link materialisation) beyond radio range.
  [[nodiscard]] double snr_db(NodeId a, NodeId b, double time_s, const LinkBudget& budget);

  [[nodiscard]] const ChannelConfig& config() const noexcept { return config_; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// One pair ever materialised: its key, the pool slot of its resident
  /// Link (kNone while evicted) and, while evicted, the memo of its
  /// shadowing history.
  struct PairRecord {
    std::uint64_t key = 0;
    double last_time_s = 0.0;
    double last_value_db = 0.0;
    std::uint32_t draws = 0;
    std::uint32_t link_slot = kNone;
  };
  static_assert(sizeof(PairRecord) == 32);

  [[nodiscard]] std::unique_ptr<FadingModel> make_fading(NodeId lo, NodeId hi);
  /// Build `pair`'s Link from its streams and memo into a free pool slot.
  void materialise(PairRecord& pair);
  /// Slot of `key` in the open-addressed table, or the empty slot where
  /// it belongs (linear probing; table is never full).
  [[nodiscard]] std::size_t probe(std::uint64_t key) const noexcept;
  void grow_table();

  ChannelConfig config_;
  sim::RngRegistry* rng_;
  LogDistancePathLoss path_loss_;
  std::vector<std::unique_ptr<MobilityModel>> nodes_;

  // Key->pair open-addressed table of indices into pairs_ (kNone =
  // empty; rehashed at 70% load).  pairs_ and pool_ grow a chunk at a
  // time, never copying what they hold; the deque keeps Link addresses
  // stable, and evicted pool slots go on free_slots_ for reuse.
  std::vector<std::uint32_t> table_;
  util::ChunkedArray<PairRecord> pairs_;
  std::deque<std::optional<Link>> pool_;
  std::vector<std::uint32_t> free_slots_;
};

/// One node's channel to its peer for one LEACH round: a sensor's link
/// to its cluster head.  The pair is fixed for the round, so the handle
/// resolves the Link once, at the round's first query, and later
/// queries go straight to it.  With a radio range configured every
/// query still runs the range test first, exactly as
/// LinkManager::snr_db does (a waypoint model must see the same
/// position queries).  Unbound or out of range, the handle answers
/// kOutOfRangeSnrDb and materialises no Link.
class RoundLink final : public SnrSource {
 public:
  /// @param links   the run's manager (must outlive the handle)
  /// @param budget  the run's link budget (must outlive the handle)
  RoundLink(LinkManager* links, NodeId self, const LinkBudget* budget) noexcept
      : links_(links), budget_(budget), self_(self) {}

  // Its owner's tone monitor holds the handle's address.
  RoundLink(const RoundLink&) = delete;
  RoundLink& operator=(const RoundLink&) = delete;

  /// Point the handle at `peer` for the round that is starting.
  void bind(NodeId peer) noexcept;

  /// Round end: release the resolved pair (LinkManager::release) and
  /// unbind, so no query can outlive its round.  A pair is held by at
  /// most one handle: a member's peer is a CH, never a member.
  void release() noexcept;

  [[nodiscard]] double snr_db(double time_s) override;

 private:
  static constexpr NodeId kNoPeer = ~NodeId{0};

  LinkManager* links_;
  Link* link_ = nullptr;  ///< resolved at the round's first query
  const LinkBudget* budget_;
  NodeId self_;
  NodeId peer_ = kNoPeer;
};

}  // namespace caem::channel

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
// City-scale storage: links live in a pooled deque (stable references,
// no per-link unique_ptr) behind an open-addressed pair->slot hash
// table, so the per-query lookup is a mix + linear probe instead of a
// red-black-tree descent.  With `radio_range_m` set, pairs beyond radio
// range are never materialised at all: snr_db answers kOutOfRangeSnrDb
// from the positions alone, which is what keeps the live link set
// O(N * neighbors) instead of O(N^2) on large fields.
//
// Round-scoped handles: a sensor talks to one CH for a whole LEACH
// round, so the network gives each node a RoundLink that resolves the
// pair once and then queries the Link directly.  When the round closes
// the handle releases the link's fading model if it is stateless
// (Jakes, Rician — about 0.5 kB each); link() re-derives it from the
// pair's stream "fading/<lo>-<hi>" the next time the pair is resolved,
// so the resident fading set is bounded by one round's members instead
// of growing with every pair the run has ever used.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "channel/link.hpp"
#include "sim/rng_registry.hpp"

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

  /// Register a node's (owned) mobility model; returns its NodeId, which
  /// is assigned densely in registration order.
  NodeId add_node(std::unique_ptr<MobilityModel> mobility);

  /// Convenience: register a static node.
  NodeId add_static_node(Vec2 position);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] MobilityModel& mobility(NodeId id) { return *nodes_.at(id); }

  /// The (shared, direction-free) link between two distinct nodes,
  /// created on first use, with its fading model resident (re-derived
  /// from its stream if it was released).  Throws std::invalid_argument
  /// for a == b or unknown ids.  References remain valid for the
  /// manager's lifetime (pooled storage never moves a Link).
  [[nodiscard]] Link& link(NodeId a, NodeId b);

  /// Drop `link`'s fading model if it is stateless; the next link() call
  /// for the pair rebuilds it bit-identically.  Block fading stays.
  void release_fading(Link& link) noexcept;

  /// Fading models currently held in memory (digest-neutral diagnostic).
  [[nodiscard]] std::size_t resident_fading_count() const noexcept { return resident_fading_; }

  /// Is the pair within the configured radio range at `time_s`?  Always
  /// true when no cutoff is configured.
  [[nodiscard]] bool in_range(NodeId a, NodeId b, double time_s);

  /// Instantaneous SNR of the a<->b channel under `budget`;
  /// kOutOfRangeSnrDb (and no link materialisation) beyond radio range.
  [[nodiscard]] double snr_db(NodeId a, NodeId b, double time_s, const LinkBudget& budget);

  [[nodiscard]] const ChannelConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t live_link_count() const noexcept { return pool_.size(); }

 private:
  [[nodiscard]] std::unique_ptr<FadingModel> make_fading(NodeId lo, NodeId hi);
  /// Slot of `key` in the open-addressed table, or the empty slot where
  /// it belongs (linear probing; table is never full).
  [[nodiscard]] std::size_t probe(std::uint64_t key) const noexcept;
  void grow_table();

  ChannelConfig config_;
  sim::RngRegistry* rng_;
  std::unique_ptr<PathLossModel> path_loss_;
  std::vector<std::unique_ptr<MobilityModel>> nodes_;

  // Pair->slot open-addressed table over pooled Link storage.  The deque
  // keeps Link addresses stable as the pool grows; the table stores
  // pool indices and rehashes (cheap: two flat vectors) at 70% load.
  std::deque<Link> pool_;
  std::vector<std::uint64_t> table_keys_;
  std::vector<std::uint32_t> table_slots_;
  std::size_t resident_fading_ = 0;
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

  /// Round end: release the resolved link's stateless fading model and
  /// unbind, so no query can outlive its round.
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

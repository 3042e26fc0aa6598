#include "channel/link_manager.hpp"

#include <stdexcept>
#include <utility>

namespace caem::channel {

namespace {

constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};  // impossible: lo == hi
constexpr std::size_t kInitialTableSize = 64;           // power of two

[[nodiscard]] std::uint64_t pair_key(NodeId a, NodeId b) noexcept {
  const NodeId lo = a < b ? a : b;
  const NodeId hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

// splitmix64 finaliser: pair keys are highly regular (two small ids), so
// probe positions need real mixing.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// Per-pair RNG stream name, "<kind>/<lo>-<hi>".
[[nodiscard]] std::string stream_tag(const char* kind, NodeId lo, NodeId hi) {
  std::string tag = kind;
  tag += '/';
  tag += std::to_string(lo);
  tag += '-';
  tag += std::to_string(hi);
  return tag;
}

}  // namespace

const char* to_string(FadingKind kind) noexcept {
  return kFadingKindNames[static_cast<int>(kind)];
}

FadingKind fading_kind_from_string(const std::string& name) {
  if (name == "jakes-rayleigh") return FadingKind::kJakesRayleigh;
  for (std::size_t kind = 0; kind < std::size(kFadingKindNames); ++kind) {
    if (name == kFadingKindNames[kind]) return static_cast<FadingKind>(kind);
  }
  throw std::invalid_argument("unknown fading kind '" + name +
                              "' (expected jakes, rician or block)");
}

LinkManager::LinkManager(ChannelConfig config, sim::RngRegistry* rng)
    : config_(config), rng_(rng) {
  if (rng_ == nullptr) throw std::invalid_argument("LinkManager: null RNG registry");
  path_loss_ = std::make_unique<LogDistancePathLoss>(config_.path_loss_exponent,
                                                     config_.path_loss_ref_db);
  table_keys_.assign(kInitialTableSize, kEmptyKey);
  table_slots_.assign(kInitialTableSize, 0);
}

NodeId LinkManager::add_node(std::unique_ptr<MobilityModel> mobility) {
  if (!mobility) throw std::invalid_argument("LinkManager: null mobility model");
  nodes_.push_back(std::move(mobility));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId LinkManager::add_static_node(Vec2 position) {
  return add_node(std::make_unique<StaticPosition>(position));
}

std::unique_ptr<FadingModel> LinkManager::make_fading(NodeId lo, NodeId hi) {
  util::Rng stream = rng_->make_stream(stream_tag("fading", lo, hi));
  switch (config_.fading_kind) {
    case FadingKind::kJakesRayleigh:
      return std::make_unique<JakesRayleighFading>(config_.doppler_hz, stream,
                                                   config_.jakes_oscillators);
    case FadingKind::kRician:
      return std::make_unique<RicianFading>(config_.doppler_hz, config_.rician_k, stream,
                                            config_.jakes_oscillators);
    case FadingKind::kBlock:
      return std::make_unique<BlockRayleighFading>(0.423 / config_.doppler_hz, stream);
  }
  throw std::logic_error("LinkManager: unknown fading kind");
}

std::size_t LinkManager::probe(std::uint64_t key) const noexcept {
  const std::size_t mask = table_keys_.size() - 1;
  std::size_t idx = static_cast<std::size_t>(mix(key)) & mask;
  while (table_keys_[idx] != kEmptyKey && table_keys_[idx] != key) {
    idx = (idx + 1) & mask;
  }
  return idx;
}

void LinkManager::grow_table() {
  std::vector<std::uint64_t> old_keys = std::move(table_keys_);
  std::vector<std::uint32_t> old_slots = std::move(table_slots_);
  table_keys_.assign(old_keys.size() * 2, kEmptyKey);
  table_slots_.assign(old_keys.size() * 2, 0);
  for (std::size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] == kEmptyKey) continue;
    const std::size_t idx = probe(old_keys[i]);
    table_keys_[idx] = old_keys[i];
    table_slots_[idx] = old_slots[i];
  }
}

Link& LinkManager::link(NodeId a, NodeId b) {
  if (a == b) throw std::invalid_argument("LinkManager: self link");
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::invalid_argument("LinkManager: unknown node id");
  }
  const std::uint64_t key = pair_key(a, b);
  const NodeId lo = a < b ? a : b;
  const NodeId hi = a < b ? b : a;
  std::size_t idx = probe(key);
  if (table_keys_[idx] == key) {
    Link& found = pool_[table_slots_[idx]];
    if (!found.has_fading()) {
      found.restore_fading(make_fading(lo, hi));
      ++resident_fading_;
    }
    return found;
  }

  // Cold miss.  The stream NAMES ("shadow/<lo>-<hi>", "fading/<lo>-<hi>")
  // are what keep pre-existing seeds byte-identical.
  GaussMarkovShadowing shadowing(config_.shadowing_sigma_db, config_.shadowing_tau_s,
                                 rng_->make_stream(stream_tag("shadow", lo, hi)));
  auto fading = make_fading(lo, hi);
  const double cache_window_s =
      config_.snr_cache_enabled ? fading->coherence_time_s() : 0.0;
  pool_.emplace_back(path_loss_.get(), nodes_[a].get(), nodes_[b].get(),
                     std::move(shadowing), std::move(fading), cache_window_s);
  ++resident_fading_;

  table_keys_[idx] = key;
  table_slots_[idx] = static_cast<std::uint32_t>(pool_.size() - 1);
  if (pool_.size() * 10 >= table_keys_.size() * 7) {
    grow_table();
  }
  return pool_.back();
}

void LinkManager::release_fading(Link& link) noexcept {
  if (link.release_fading()) --resident_fading_;
}

bool LinkManager::in_range(NodeId a, NodeId b, double time_s) {
  if (config_.radio_range_m <= 0.0) return true;
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::invalid_argument("LinkManager: unknown node id");
  }
  const double d = distance_m(nodes_[a]->position_at(time_s), nodes_[b]->position_at(time_s));
  return d <= config_.radio_range_m;
}

double LinkManager::snr_db(NodeId a, NodeId b, double time_s, const LinkBudget& budget) {
  if (!in_range(a, b, time_s)) return kOutOfRangeSnrDb;
  return link(a, b).snr_db(time_s, budget);
}

void RoundLink::bind(NodeId peer) noexcept {
  link_ = nullptr;
  peer_ = peer;
}

void RoundLink::release() noexcept {
  if (link_ != nullptr) links_->release_fading(*link_);
  link_ = nullptr;
  peer_ = kNoPeer;
}

double RoundLink::snr_db(double time_s) {
  if (peer_ == kNoPeer) return kOutOfRangeSnrDb;
  if (!links_->in_range(self_, peer_, time_s)) return kOutOfRangeSnrDb;
  if (link_ == nullptr) link_ = &links_->link(self_, peer_);
  return link_->snr_db(time_s, *budget_);
}

}  // namespace caem::channel

#include "channel/link_manager.hpp"

#include <stdexcept>
#include <utility>

namespace caem::channel {

namespace {

constexpr std::size_t kInitialTableSize = 64;  // power of two

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
    : config_(config),
      rng_(rng),
      path_loss_(config_.path_loss_exponent, config_.path_loss_ref_db) {
  if (rng_ == nullptr) throw std::invalid_argument("LinkManager: null RNG registry");
  table_.assign(kInitialTableSize, kNone);
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
  const std::size_t mask = table_.size() - 1;
  std::size_t idx = static_cast<std::size_t>(mix(key)) & mask;
  while (table_[idx] != kNone && pairs_[table_[idx]].key != key) {
    idx = (idx + 1) & mask;
  }
  return idx;
}

void LinkManager::grow_table() {
  table_.assign(table_.size() * 2, kNone);
  for (std::size_t pair = 0; pair < pairs_.size(); ++pair) {
    table_[probe(pairs_[pair].key)] = static_cast<std::uint32_t>(pair);
  }
}

void LinkManager::materialise(PairRecord& pair) {
  const auto lo = static_cast<NodeId>(pair.key >> 32);
  const auto hi = static_cast<NodeId>(pair.key);
  // The stream NAMES ("shadow/<lo>-<hi>", "fading/<lo>-<hi>") are what
  // keep pre-existing seeds byte-identical.
  GaussMarkovShadowing shadowing(config_.shadowing_sigma_db, config_.shadowing_tau_s,
                                 rng_->make_stream(stream_tag("shadow", lo, hi)));
  shadowing.resume({pair.last_time_s, pair.last_value_db, pair.draws});
  auto fading = make_fading(lo, hi);
  const double cache_window_s =
      config_.snr_cache_enabled ? fading->coherence_time_s() : 0.0;
  if (free_slots_.empty()) {
    pair.link_slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  } else {
    pair.link_slot = free_slots_.back();
    free_slots_.pop_back();
  }
  pool_[pair.link_slot].emplace(&path_loss_, nodes_[lo].get(), nodes_[hi].get(),
                                std::move(shadowing), std::move(fading), cache_window_s);
}

Link& LinkManager::link(NodeId a, NodeId b) {
  if (a == b) throw std::invalid_argument("LinkManager: self link");
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::invalid_argument("LinkManager: unknown node id");
  }
  const std::uint64_t key = pair_key(a, b);
  const std::size_t idx = probe(key);
  std::uint32_t index = table_[idx];
  if (index == kNone) {
    // First use: a record with no draws builds the Link from fresh streams.
    index = static_cast<std::uint32_t>(pairs_.size());
    table_[idx] = index;
    pairs_.push_back({key});
    if (pairs_.size() * 10 >= table_.size() * 7) grow_table();
  }
  PairRecord& pair = pairs_[index];
  if (pair.link_slot == kNone) materialise(pair);
  return *pool_[pair.link_slot];
}

void LinkManager::release(NodeId a, NodeId b) noexcept {
  const std::uint32_t index = table_[probe(pair_key(a, b))];
  if (index == kNone) return;
  PairRecord& pair = pairs_[index];
  if (pair.link_slot == kNone) return;
  const Link& link = *pool_[pair.link_slot];
  const GaussMarkovShadowing::History history = link.shadowing().history();
  // A pair past 2^32 - 1 draws cannot be counted in its record: it stays.
  if (!link.fading_stateless() || history.draws > UINT32_MAX) return;
  pair.last_time_s = history.last_time_s;
  pair.last_value_db = history.last_value_db;
  pair.draws = static_cast<std::uint32_t>(history.draws);
  pool_[pair.link_slot].reset();
  free_slots_.push_back(pair.link_slot);
  pair.link_slot = kNone;
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
  if (link_ != nullptr) links_->release(self_, peer_);
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

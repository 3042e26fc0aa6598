// Tests for the composite Link and the LinkManager.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "channel/link.hpp"
#include "channel/link_manager.hpp"
#include "channel/shadowing.hpp"
#include "sim/rng_registry.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace caem::channel {
namespace {

TEST(NoiseFloor, ThermalPlusNf) {
  // kTB at 290 K for 1 Hz is -174 dBm; 2 MHz adds 63 dB; NF adds 10.
  EXPECT_NEAR(noise_floor_dbm(2e6, 10.0), -174.0 + 63.0 + 10.0, 0.2);
  EXPECT_NEAR(noise_floor_dbm(1.0, 0.0), -174.0, 0.2);
}

class LinkTest : public ::testing::Test {
 protected:
  sim::RngRegistry rng_{42};
  ChannelConfig config_{};
  LinkManager links_{config_, &rng_};
  LinkBudget budget_{0.0, noise_floor_dbm(2e6, 10.0)};
};

TEST_F(LinkTest, SnrDecreasesWithDistanceOnAverage) {
  const NodeId a = links_.add_static_node({0, 0});
  const NodeId near = links_.add_static_node({10, 0});
  const NodeId far = links_.add_static_node({60, 0});
  util::OnlineStats near_stats, far_stats;
  for (int i = 0; i < 2000; ++i) {
    near_stats.add(links_.snr_db(a, near, i * 0.5, budget_));
    far_stats.add(links_.snr_db(a, far, i * 0.5, budget_));
  }
  EXPECT_GT(near_stats.mean(), far_stats.mean() + 15.0);  // ~23 dB at n=3
}

TEST_F(LinkTest, MeanSnrMatchesLinkBudget) {
  // At 10 m, n=3, ref 40 dB: PL = 70 dB; mean fading gain 1 (0 dB),
  // mean shadowing 0 dB -> mean *linear* SNR corresponds to 0 - 70 -
  // noise_floor.  Compare in the linear domain (dB average of a fading
  // channel is biased low by Jensen).
  const NodeId a = links_.add_static_node({0, 0});
  const NodeId b = links_.add_static_node({10, 0});
  util::OnlineStats linear;
  for (int i = 0; i < 20000; ++i) {
    linear.add(util::db_to_linear(links_.snr_db(a, b, i * 0.7, budget_)));
  }
  const double expected_db = 0.0 - 70.0 - budget_.noise_floor_dbm;
  // Lognormal shadowing with sigma 4 dB inflates the linear mean by
  // exp((sigma*ln10/10)^2/2) ~ +1.84 dB.
  const double sigma_n = config_.shadowing_sigma_db * std::log(10.0) / 10.0;
  const double shadow_bias_db = 10.0 * std::log10(std::exp(sigma_n * sigma_n / 2.0));
  EXPECT_NEAR(util::linear_to_db(linear.mean()), expected_db + shadow_bias_db, 1.0);
}

TEST_F(LinkTest, Reciprocity) {
  const NodeId a = links_.add_static_node({0, 0});
  const NodeId b = links_.add_static_node({25, 7});
  Link& ab = links_.link(a, b);
  Link& ba = links_.link(b, a);
  EXPECT_EQ(&ab, &ba);  // one shared process: G_ab == G_ba by construction
  EXPECT_EQ(links_.pair_count(), 1u);
}

TEST_F(LinkTest, DistinctPairsDistinctProcesses) {
  const NodeId a = links_.add_static_node({0, 0});
  const NodeId b = links_.add_static_node({20, 0});
  const NodeId c = links_.add_static_node({0, 20});
  // Same distance, but independent fading -> different instantaneous SNR.
  const double ab = links_.snr_db(a, b, 1.0, budget_);
  const double ac = links_.snr_db(a, c, 1.0, budget_);
  EXPECT_NE(ab, ac);
  EXPECT_EQ(links_.pair_count(), 2u);
}

TEST_F(LinkTest, DistanceTracked) {
  const NodeId a = links_.add_static_node({0, 0});
  const NodeId b = links_.add_static_node({30, 40});
  EXPECT_DOUBLE_EQ(links_.link(a, b).distance_m_at(0.0), 50.0);
}

TEST_F(LinkTest, Validation) {
  const NodeId a = links_.add_static_node({0, 0});
  EXPECT_THROW((void)links_.link(a, a), std::invalid_argument);
  EXPECT_THROW((void)links_.link(a, 999), std::invalid_argument);
  EXPECT_THROW(links_.add_node(nullptr), std::invalid_argument);
}

TEST_F(LinkTest, DeterministicAcrossManagers) {
  sim::RngRegistry rng_b(42);
  LinkManager other(config_, &rng_b);
  const NodeId a1 = links_.add_static_node({0, 0});
  const NodeId b1 = links_.add_static_node({15, 0});
  const NodeId a2 = other.add_static_node({0, 0});
  const NodeId b2 = other.add_static_node({15, 0});
  for (double t = 0.0; t < 5.0; t += 0.7) {
    EXPECT_EQ(links_.snr_db(a1, b1, t, budget_), other.snr_db(a2, b2, t, budget_));
  }
}

TEST(LinkRange, OutOfRangePairsNeverMaterialise) {
  sim::RngRegistry rng(42);
  ChannelConfig config;
  config.radio_range_m = 50.0;
  LinkManager links(config, &rng);
  const NodeId a = links.add_static_node({0, 0});
  const NodeId b = links.add_static_node({200, 0});
  const NodeId c = links.add_static_node({30, 0});
  const LinkBudget budget{0.0, -101.0};

  EXPECT_FALSE(links.in_range(a, b, 0.0));
  EXPECT_EQ(links.snr_db(a, b, 0.0, budget), kOutOfRangeSnrDb);
  EXPECT_EQ(links.pair_count(), 0u);  // no Link was created

  EXPECT_TRUE(links.in_range(a, c, 0.0));
  EXPECT_TRUE(std::isfinite(links.snr_db(a, c, 0.0, budget)));
  EXPECT_EQ(links.pair_count(), 1u);
}

TEST(LinkRange, BoundaryIsInclusiveAndZeroMeansUnlimited) {
  sim::RngRegistry rng(42);
  ChannelConfig ranged;
  ranged.radio_range_m = 50.0;
  LinkManager links(ranged, &rng);
  const NodeId a = links.add_static_node({0, 0});
  const NodeId b = links.add_static_node({50, 0});  // exactly at the cutoff
  EXPECT_TRUE(links.in_range(a, b, 0.0));

  sim::RngRegistry rng2(42);
  LinkManager unlimited(ChannelConfig{}, &rng2);  // default: range 0
  const NodeId u = unlimited.add_static_node({0, 0});
  const NodeId v = unlimited.add_static_node({1e7, 0});
  EXPECT_TRUE(unlimited.in_range(u, v, 0.0));
}

TEST(LinkRange, RangeCutoffPreservesDrawsForInRangePairs) {
  // The cutoff must not perturb the RNG streams of pairs that DO link:
  // per-pair streams are keyed by name, not creation order.
  sim::RngRegistry rng_a(7);
  LinkManager plain(ChannelConfig{}, &rng_a);
  sim::RngRegistry rng_b(7);
  ChannelConfig ranged;
  ranged.radio_range_m = 100.0;
  LinkManager cut(ranged, &rng_b);
  const LinkBudget budget{0.0, -101.0};
  for (const Vec2 p : {Vec2{0, 0}, Vec2{40, 0}, Vec2{500, 0}}) {
    plain.add_static_node(p);
    cut.add_static_node(p);
  }
  // Node 2 is out of range of both others in `cut` (never links there)
  // but links fine in `plain` — pair 0-1 must still agree exactly.
  (void)plain.snr_db(0, 2, 0.0, budget);
  for (double t = 0.0; t < 3.0; t += 0.5) {
    EXPECT_EQ(plain.snr_db(0, 1, t, budget), cut.snr_db(0, 1, t, budget));
  }
}

TEST(LinkPool, ReferencesStableAcrossTableGrowth) {
  // The pair table rehashes as links accumulate; Link references handed
  // out earlier must survive (pooled storage never moves).
  sim::RngRegistry rng(11);
  LinkManager links(ChannelConfig{}, &rng);
  for (int i = 0; i < 40; ++i) {
    links.add_static_node({static_cast<double>(i), 0.0});
  }
  Link& first = links.link(0, 1);
  const double d0 = first.distance_m_at(0.0);
  for (NodeId a = 0; a < 40; ++a) {
    for (NodeId b = a + 1; b < 40; ++b) (void)links.link(a, b);
  }
  EXPECT_EQ(links.pair_count(), 40u * 39u / 2u);
  EXPECT_EQ(&links.link(0, 1), &first);
  EXPECT_DOUBLE_EQ(first.distance_m_at(0.0), d0);
}

TEST(LinkManagerKinds, AllFadingKindsConstruct) {
  sim::RngRegistry rng(1);
  for (const FadingKind kind :
       {FadingKind::kJakesRayleigh, FadingKind::kRician, FadingKind::kBlock}) {
    ChannelConfig config;
    config.fading_kind = kind;
    LinkManager links(config, &rng);
    const NodeId a = links.add_static_node({0, 0});
    const NodeId b = links.add_static_node({10, 0});
    const LinkBudget budget{0.0, -101.0};
    EXPECT_TRUE(std::isfinite(links.snr_db(a, b, 1.0, budget)));
  }
}

TEST(LinkDirect, DeepFadeStaysFinite) {
  // The fading floor guarantees a finite (very negative) gain.
  sim::RngRegistry rng(9);
  ChannelConfig config;
  LinkManager links(config, &rng);
  const NodeId a = links.add_static_node({0, 0});
  const NodeId b = links.add_static_node({80, 0});
  const LinkBudget budget{0.0, -101.0};
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(std::isfinite(links.snr_db(a, b, i * 0.01, budget)));
  }
}

// ---- round-scoped handles (RoundLink) and fading release ----

// Query schedule of one "round": tone-check-like times that revisit
// coherence windows and span several of them.
std::vector<double> round_queries(int round) {
  std::vector<double> times;
  for (int i = 0; i < 40; ++i) times.push_back(round * 2.0 + i * 0.037);
  return times;
}

class RoundLinkRelease
    : public ::testing::TestWithParam<std::tuple<FadingKind, bool /*snr cache*/>> {};

// A stateless-fading link evicted at every round end and rebuilt from
// its memo at the next resolution must answer exactly what a link that
// was never evicted answers; block fading is never evicted.
TEST_P(RoundLinkRelease, ReleasedLinksMatchNeverReleasedOnes) {
  const auto [kind, cache] = GetParam();
  ChannelConfig config;
  config.fading_kind = kind;
  config.snr_cache_enabled = cache;
  const LinkBudget budget{0.0, -101.0};
  sim::RngRegistry rng_released(2005);
  sim::RngRegistry rng_resident(2005);
  LinkManager released(config, &rng_released);
  LinkManager resident(config, &rng_resident);
  for (const Vec2 p : {Vec2{0, 0}, Vec2{25, 10}, Vec2{60, 40}}) {
    released.add_static_node(p);
    resident.add_static_node(p);
  }
  RoundLink handle(&released, 0, &budget);
  const bool stateless = kind != FadingKind::kBlock;
  for (int round = 0; round < 6; ++round) {
    const NodeId peer = round % 3 == 2 ? 2 : 1;  // the CH changes now and then
    handle.bind(peer);
    for (const double t : round_queries(round)) {
      ASSERT_EQ(handle.snr_db(t), resident.snr_db(0, peer, t, budget))
          << "round " << round << " t " << t;
    }
    EXPECT_EQ(released.resident_link_count(), stateless ? 1u : released.pair_count());
    handle.release();
    EXPECT_EQ(released.resident_link_count(), stateless ? 0u : released.pair_count());
    (void)released.link(0, peer);  // link() rebuilds an evicted pair
    EXPECT_EQ(released.resident_link_count(), stateless ? 1u : released.pair_count());
    released.release(0, peer);
    EXPECT_EQ(handle.snr_db(round * 2.0 + 1.0), kOutOfRangeSnrDb);  // unbound after release
  }
  EXPECT_EQ(released.pair_count(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, RoundLinkRelease,
    ::testing::Combine(::testing::Values(FadingKind::kJakesRayleigh, FadingKind::kRician,
                                         FadingKind::kBlock),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_cached" : "_exact");
    });

// Memo oracle: a member's CH changes every round, so each pair is
// evicted at round close and re-resolved one to three rounds later,
// under every fading kind and both mobility models.  Its SNR series
// must match, bit for bit, a manager whose Links are never evicted; and
// the memoising manager holds at most the round's one Link.
class LinkMemoOracle
    : public ::testing::TestWithParam<std::tuple<FadingKind, bool /*waypoint*/>> {};

TEST_P(LinkMemoOracle, EvictedPairsReplayTheNeverEvictedSeries) {
  const auto [kind, waypoint] = GetParam();
  ChannelConfig config;
  config.fading_kind = kind;
  const LinkBudget budget{0.0, -101.0};
  sim::RngRegistry rng_memo(2005);
  sim::RngRegistry rng_resident(2005);
  LinkManager memo(config, &rng_memo);
  LinkManager resident(config, &rng_resident);
  for (LinkManager* links : {&memo, &resident}) {
    for (int i = 0; i < 4; ++i) {
      if (waypoint) {
        links->add_node(std::make_unique<RandomWaypoint>(
            Vec2{0, 0}, Vec2{60, 60}, 0.5, 2.0, 1.0,
            util::Rng(99, "mobility/" + std::to_string(i))));
      } else {
        links->add_static_node({15.0 * i, 10.0 * (i % 2)});
      }
    }
  }
  RoundLink handle(&memo, 0, &budget);
  const bool stateless = kind != FadingKind::kBlock;
  const NodeId peers[] = {1, 2, 1, 3, 3, 2, 1, 3, 1, 2, 2, 1};  // gaps of 1 to 3 rounds
  for (int round = 0; round < static_cast<int>(std::size(peers)); ++round) {
    handle.bind(peers[round]);
    // 37 to 40 queries: a pair is evicted after odd and even draw counts.
    std::vector<double> times = round_queries(round);
    times.resize(37 + round % 4);
    for (const double t : times) {
      ASSERT_EQ(handle.snr_db(t), resident.snr_db(0, peers[round], t, budget))
          << "round " << round << " t " << t;
    }
    EXPECT_EQ(memo.resident_link_count(), stateless ? 1u : memo.pair_count());
    handle.release();
    EXPECT_EQ(memo.resident_link_count(), stateless ? 0u : memo.pair_count());
  }
  EXPECT_EQ(memo.pair_count(), 3u);
  EXPECT_EQ(resident.resident_link_count(), 3u);  // never released
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, LinkMemoOracle,
    ::testing::Combine(::testing::Values(FadingKind::kJakesRayleigh, FadingKind::kRician,
                                         FadingKind::kBlock),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_waypoint" : "_static");
    });

TEST(LinkMemo, ShadowingResumesFromItsHistory) {
  // Park a process mid-stream (the count of drawn variates alternates
  // between odd, with a cached Box-Muller mate, and even) and resume it
  // in a fresh process on the same stream.
  GaussMarkovShadowing original(4.0, 3.0, util::Rng(7, "shadow/0-1"));
  for (int step = 0; step < 9; ++step) {
    (void)original.value_db(step * 0.4);
    EXPECT_EQ(original.history().draws, static_cast<std::uint64_t>(step + 1));
    GaussMarkovShadowing rebuilt(4.0, 3.0, util::Rng(7, "shadow/0-1"));
    rebuilt.resume(original.history());
    GaussMarkovShadowing twin = original;
    for (double t = step * 0.4; t < step * 0.4 + 5.0; t += 0.3) {
      ASSERT_EQ(rebuilt.value_db(t), twin.value_db(t)) << "step " << step << " t " << t;
    }
  }
  // A process that never drew has no history: resuming keeps it fresh.
  GaussMarkovShadowing fresh(4.0, 3.0, util::Rng(7, "shadow/0-1"));
  GaussMarkovShadowing resumed(4.0, 3.0, util::Rng(7, "shadow/0-1"));
  resumed.resume(resumed.history());
  EXPECT_EQ(resumed.value_db(1.0), fresh.value_db(1.0));
}

TEST(LinkMemo, DiscardNormalsLandsWhereNormalCallsDo) {
  for (std::uint64_t skip = 0; skip < 7; ++skip) {
    for (const int lead : {0, 1}) {  // start with and without a cached variate
      util::Rng called(11, "discard");
      util::Rng skipped(11, "discard");
      for (int i = 0; i < lead; ++i) {
        (void)called.normal();
        (void)skipped.normal();
      }
      for (std::uint64_t i = 0; i < skip; ++i) (void)called.normal();
      skipped.discard_normals(skip);
      for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(called.normal(), skipped.normal()) << "skip " << skip << " lead " << lead;
      }
      EXPECT_EQ(called.next(), skipped.next());
    }
  }
}

TEST(RoundLink, OutOfRangeStaticMemberMaterialisesNoLink) {
  sim::RngRegistry rng(3);
  ChannelConfig config;
  config.radio_range_m = 40.0;
  LinkManager links(config, &rng);
  const NodeId member = links.add_static_node({0, 0});
  const NodeId far_ch = links.add_static_node({70, 0});
  const NodeId near_ch = links.add_static_node({30, 0});
  const LinkBudget budget{0.0, -101.0};
  RoundLink handle(&links, member, &budget);

  EXPECT_EQ(handle.snr_db(0.0), kOutOfRangeSnrDb);  // never bound
  handle.bind(far_ch);
  for (double t = 0.0; t < 2.0; t += 0.1) EXPECT_EQ(handle.snr_db(t), kOutOfRangeSnrDb);
  handle.release();
  EXPECT_EQ(links.pair_count(), 0u);

  handle.bind(near_ch);
  EXPECT_EQ(links.pair_count(), 0u);  // resolved at the first query, not at bind
  EXPECT_TRUE(std::isfinite(handle.snr_db(2.0)));
  EXPECT_EQ(links.pair_count(), 1u);
}

TEST(RoundLink, MobilePairKeepsThePerQueryRangeTest) {
  // Waypoint endpoints move between queries: the handle must answer
  // exactly what the per-query LinkManager path answers, range cut-offs
  // included, and leave both mobility models in the same state.
  ChannelConfig config;
  config.radio_range_m = 30.0;
  const LinkBudget budget{0.0, -101.0};
  sim::RngRegistry rng_a(17);
  sim::RngRegistry rng_b(17);
  LinkManager via_handle(config, &rng_a);
  LinkManager direct(config, &rng_b);
  for (LinkManager* links : {&via_handle, &direct}) {
    for (int i = 0; i < 2; ++i) {
      links->add_node(std::make_unique<RandomWaypoint>(
          Vec2{0, 0}, Vec2{60, 60}, 2.0, 5.0, 0.0,
          util::Rng(99, "mobility/" + std::to_string(i))));
    }
  }
  RoundLink handle(&via_handle, 0, &budget);
  handle.bind(1);
  int out_of_range = 0;
  for (double t = 0.0; t < 60.0; t += 0.25) {
    const double expected = direct.snr_db(0, 1, t, budget);
    out_of_range += expected == kOutOfRangeSnrDb;
    ASSERT_EQ(handle.snr_db(t), expected) << "t " << t;
  }
  EXPECT_GT(out_of_range, 0);  // the schedule crosses the cut-off
}

TEST(LinkFading, RebuiltFromItsStreamReproducesEverySample) {
  // Release and re-derivation rely on this: a stateless model rebuilt
  // from the same stream reproduces the original sample for sample.
  JakesRayleighFading a(3.0, util::Rng(5, "fading/0-1"));
  JakesRayleighFading b(3.0, util::Rng(5, "fading/0-1"));
  for (double t = 0.0; t < 5.0; t += 0.013) {
    EXPECT_EQ(a.power_gain(t), b.power_gain(t));
  }
  EXPECT_TRUE(a.stateless());
  EXPECT_FALSE(BlockRayleighFading(0.14, util::Rng(5)).stateless());
}

}  // namespace
}  // namespace caem::channel

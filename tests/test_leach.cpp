// Tests for LEACH election, cluster formation and the clustering
// strategies protocols plug into the core network.
#include <gtest/gtest.h>

#include <numeric>

#include "leach/cluster.hpp"
#include "leach/clustering.hpp"
#include "leach/election.hpp"
#include "leach/round_manager.hpp"

namespace caem::leach {
namespace {

TEST(ElectionThreshold, FormulaValues) {
  // T = P / (1 - P (r mod 1/P)); P = 0.05.
  EXPECT_NEAR(election_threshold(0.05, 0), 0.05, 1e-12);
  EXPECT_NEAR(election_threshold(0.05, 10), 0.05 / (1 - 0.05 * 10), 1e-12);
  EXPECT_NEAR(election_threshold(0.05, 19), 1.0, 1e-9);  // last round: certain
  EXPECT_NEAR(election_threshold(0.05, 20), 0.05, 1e-12);  // epoch wraps
  EXPECT_EQ(epoch_length(0.05), 20u);
  EXPECT_EQ(epoch_length(0.1), 10u);
  EXPECT_THROW((void)election_threshold(0.0, 0), std::invalid_argument);
  EXPECT_THROW((void)epoch_length(1.5), std::invalid_argument);
}

TEST(Election, EveryoneServesExactlyOncePerEpoch) {
  const std::size_t n = 100;
  Election election(n, 0.05);
  util::Rng rng(123);
  const std::vector<bool> alive(n, true);
  std::vector<int> times_served(n, 0);
  for (std::uint32_t round = 0; round < epoch_length(0.05); ++round) {
    const auto heads = election.elect(alive, rng);
    for (std::size_t i = 0; i < n; ++i) times_served[i] += heads[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(times_served[i], 1) << "node " << i;
  }
}

TEST(Election, ExpectedHeadCountNearNP) {
  const std::size_t n = 100;
  Election election(n, 0.05);
  util::Rng rng(7);
  const std::vector<bool> alive(n, true);
  double total_heads = 0.0;
  const int epochs = 50;
  for (int e = 0; e < epochs; ++e) {
    for (std::uint32_t round = 0; round < 20; ++round) {
      const auto heads = election.elect(alive, rng);
      total_heads += std::accumulate(heads.begin(), heads.end(), 0.0);
    }
  }
  const double mean_per_round = total_heads / (epochs * 20.0);
  EXPECT_NEAR(mean_per_round, 5.0, 0.5);  // N*P = 5
}

TEST(Election, DeadNodesNeverElected) {
  const std::size_t n = 20;
  Election election(n, 0.25);
  util::Rng rng(5);
  std::vector<bool> alive(n, true);
  for (std::size_t i = 0; i < n; i += 2) alive[i] = false;
  for (int round = 0; round < 40; ++round) {
    const auto heads = election.elect(alive, rng);
    for (std::size_t i = 0; i < n; i += 2) EXPECT_FALSE(heads[i]);
  }
}

TEST(Election, AlwaysAtLeastOneHeadAmongAlive) {
  // With tiny P, self-election often produces zero heads: the draft rule
  // must guarantee one.
  Election election(10, 0.01);
  util::Rng rng(3);
  const std::vector<bool> alive(10, true);
  for (int round = 0; round < 100; ++round) {
    const auto heads = election.elect(alive, rng);
    EXPECT_GE(std::accumulate(heads.begin(), heads.end(), 0), 1);
  }
}

TEST(Election, Validation) {
  EXPECT_THROW(Election(0, 0.05), std::invalid_argument);
  EXPECT_THROW(Election(10, 0.0), std::invalid_argument);
  Election election(5, 0.2);
  util::Rng rng(1);
  EXPECT_THROW(election.elect(std::vector<bool>(4, true), rng), std::invalid_argument);
}

TEST(Clusters, MembersJoinNearestHead) {
  const std::vector<channel::Vec2> positions{
      {0, 0}, {100, 0}, {10, 0}, {90, 0}, {49, 0}};
  const std::vector<bool> heads{true, true, false, false, false};
  const std::vector<bool> alive(5, true);
  const auto clusters = form_clusters(positions, heads, alive);
  ASSERT_EQ(clusters.size(), 2u);
  // Cluster of head 0: members 2 (at 10) and 4 (at 49, closer to 0 than 100).
  EXPECT_EQ(clusters[0].head, 0u);
  EXPECT_EQ(clusters[0].members, (std::vector<std::uint32_t>{2, 4}));
  EXPECT_EQ(clusters[1].head, 1u);
  EXPECT_EQ(clusters[1].members, (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(clusters[0].size(), 3u);
}

TEST(Clusters, DeadNodesExcluded) {
  const std::vector<channel::Vec2> positions{{0, 0}, {1, 0}, {2, 0}};
  const std::vector<bool> heads{true, false, false};
  const std::vector<bool> alive{true, false, true};
  const auto clusters = form_clusters(positions, heads, alive);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].members, (std::vector<std::uint32_t>{2}));
}

TEST(Clusters, NoAliveHeadThrows) {
  const std::vector<channel::Vec2> positions{{0, 0}, {1, 0}};
  EXPECT_THROW(form_clusters(positions, {true, false}, {false, true}),
               std::invalid_argument);
  EXPECT_THROW(form_clusters(positions, {false}, {true, true}), std::invalid_argument);
}

TEST(RoundManager, PartitionsAllAliveNodes) {
  RoundManager manager(50, 0.1, 20.0);
  util::Rng rng(9);
  std::vector<channel::Vec2> positions;
  util::Rng place(4);
  for (int i = 0; i < 50; ++i) {
    positions.push_back({place.uniform(0, 100), place.uniform(0, 100)});
  }
  const std::vector<bool> alive(50, true);
  for (int round = 0; round < 10; ++round) {
    const auto clusters = manager.next_round(positions, alive, rng);
    std::size_t covered = 0;
    for (const auto& cluster : clusters) covered += cluster.size();
    EXPECT_EQ(covered, 50u);
  }
  EXPECT_EQ(manager.rounds_started(), 10u);
}

TEST(RoundManager, AllDeadThrows) {
  RoundManager manager(3, 0.3, 20.0);
  util::Rng rng(1);
  EXPECT_THROW(
      manager.next_round({{0, 0}, {1, 0}, {2, 0}}, std::vector<bool>(3, false), rng),
      std::invalid_argument);
  EXPECT_THROW(RoundManager(3, 0.3, 0.0), std::invalid_argument);
}

// -------------------------------------------------- clustering strategies

std::vector<channel::Vec2> uniform_positions(std::size_t n, std::uint64_t seed) {
  util::Rng place(seed);
  std::vector<channel::Vec2> positions;
  positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back({place.uniform(0, 100), place.uniform(0, 100)});
  }
  return positions;
}

std::vector<bool> heads_of(const std::vector<Cluster>& clusters, std::size_t n) {
  std::vector<bool> heads(n, false);
  for (const Cluster& cluster : clusters) heads[cluster.head] = true;
  return heads;
}

TEST(Clustering, LeachStrategyServesEveryoneExactlyOncePerEpoch) {
  // The defining LEACH property, observed through the strategy hook:
  // within every epoch each surviving node heads exactly one round, and
  // the epoch reset re-arms everyone (two epochs -> exactly twice).
  const std::size_t n = 40;
  const double p = 0.1;
  RoundElectionClustering strategy(n, p, 20.0);
  util::Rng rng(77);
  const auto positions = uniform_positions(n, 4);
  const std::vector<bool> alive(n, true);
  for (int epoch = 0; epoch < 2; ++epoch) {
    std::vector<int> served(n, 0);
    for (std::uint32_t round = 0; round < epoch_length(p); ++round) {
      const auto heads = heads_of(strategy.next_round(positions, alive, rng), n);
      for (std::size_t i = 0; i < n; ++i) served[i] += heads[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(served[i], 1) << "node " << i << " in epoch " << epoch;
    }
  }
  EXPECT_EQ(strategy.rounds_started(), 2 * epoch_length(p));
}

TEST(Clustering, StaticStrategyNeverRotates) {
  // The anti-property: the round-0 heads stay heads forever and nobody
  // else ever serves — "exactly once per epoch" deliberately fails.
  const std::size_t n = 40;
  StaticClustering strategy(n, 0.1);
  util::Rng rng(77);
  const auto positions = uniform_positions(n, 4);
  const std::vector<bool> alive(n, true);
  const auto initial = heads_of(strategy.next_round(positions, alive, rng), n);
  EXPECT_TRUE(strategy.formed());
  for (int round = 1; round < 30; ++round) {
    const auto heads = heads_of(strategy.next_round(positions, alive, rng), n);
    EXPECT_EQ(heads, initial) << "round " << round;
  }
  EXPECT_EQ(strategy.rounds_started(), 30u);
  // The frozen election never re-arms: served_this_epoch stays set for
  // the heads and unset for everyone else, 30 rounds in.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(strategy.election().served_this_epoch(i), initial[i]) << "node " << i;
  }
}

TEST(Clustering, DraftFallbackReachesBothStrategies) {
  // P so small that self-election nearly always yields zero heads: the
  // draft-a-CH fallback must still produce a layout through the hook.
  const std::size_t n = 10;
  const auto positions = uniform_positions(n, 9);
  const std::vector<bool> alive(n, true);
  RoundElectionClustering leach(n, 0.01, 20.0);
  util::Rng rng_a(3);
  for (int round = 0; round < 50; ++round) {
    EXPECT_GE(leach.next_round(positions, alive, rng_a).size(), 1u) << "round " << round;
  }
  StaticClustering fixed(n, 0.01);
  util::Rng rng_b(3);
  EXPECT_GE(fixed.next_round(positions, alive, rng_b).size(), 1u);
}

TEST(Clustering, StaticRetiresDeadHeadsAndFiltersDeadMembers) {
  const std::size_t n = 12;
  StaticClustering strategy(n, 0.25);
  util::Rng rng(21);
  const auto positions = uniform_positions(n, 2);
  std::vector<bool> alive(n, true);
  const auto layout = strategy.next_round(positions, alive, rng);
  ASSERT_GE(layout.size(), 1u);

  // Kill one member: it disappears while its cluster survives.
  ASSERT_FALSE(layout[0].members.empty());
  const std::uint32_t member = layout[0].members.front();
  alive[member] = false;
  auto next = strategy.next_round(positions, alive, rng);
  ASSERT_EQ(next.size(), layout.size());
  for (const Cluster& cluster : next) {
    for (const std::uint32_t m : cluster.members) EXPECT_NE(m, member);
  }

  // Kill a head: its whole cluster retires; members do NOT migrate.
  alive[layout[0].head] = false;
  next = strategy.next_round(positions, alive, rng);
  EXPECT_EQ(next.size(), layout.size() - 1);

  // Kill every head: the layout empties (the network idles) but the
  // strategy still answers — only an all-dead network throws.
  for (const Cluster& cluster : layout) alive[cluster.head] = false;
  EXPECT_TRUE(strategy.next_round(positions, alive, rng).empty());
  EXPECT_THROW(strategy.next_round(positions, std::vector<bool>(n, false), rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace caem::leach

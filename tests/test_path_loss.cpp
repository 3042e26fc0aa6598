// Tests for the log-distance path-loss model.
#include <gtest/gtest.h>

#include "channel/path_loss.hpp"

namespace caem::channel {
namespace {

TEST(LogDistance, ReferenceAndSlope) {
  const LogDistancePathLoss model(3.0, 40.0, 1.0);
  EXPECT_DOUBLE_EQ(model.loss_db(1.0), 40.0);
  EXPECT_NEAR(model.loss_db(10.0), 70.0, 1e-9);   // +30 dB per decade at n=3
  EXPECT_NEAR(model.loss_db(100.0), 100.0, 1e-9);
}

TEST(LogDistance, ClampsBelowReference) {
  const LogDistancePathLoss model(3.0, 40.0, 1.0);
  EXPECT_DOUBLE_EQ(model.loss_db(0.0), 40.0);
  EXPECT_DOUBLE_EQ(model.loss_db(0.5), 40.0);
}

TEST(LogDistance, MonotoneInDistance) {
  const LogDistancePathLoss model(2.7, 40.0);
  double previous = 0.0;
  for (double d = 1.0; d <= 200.0; d += 1.0) {
    const double loss = model.loss_db(d);
    EXPECT_GE(loss, previous);
    previous = loss;
  }
}

TEST(LogDistance, Validation) {
  EXPECT_THROW(LogDistancePathLoss(0.0, 40.0), std::invalid_argument);
  EXPECT_THROW(LogDistancePathLoss(3.0, 40.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace caem::channel

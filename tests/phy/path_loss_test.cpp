#include "whart/phy/path_loss.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "whart/common/contracts.hpp"
#include "whart/phy/modulation.hpp"

namespace whart::phy {
namespace {

TEST(PathLoss, ReferencePointAndSlope) {
  PathLossModel model;
  model.exponent = 2.0;
  model.reference_loss_db = 40.0;
  EXPECT_DOUBLE_EQ(model.path_loss_db(1.0), 40.0);
  // n = 2: +20 dB per decade.
  EXPECT_NEAR(model.path_loss_db(10.0), 60.0, 1e-12);
  EXPECT_NEAR(model.path_loss_db(100.0), 80.0, 1e-12);
}

TEST(PathLoss, MonotoneInDistanceAndExponent) {
  PathLossModel gentle;
  gentle.exponent = 2.0;
  PathLossModel harsh;
  harsh.exponent = 3.5;
  double previous = 0.0;
  for (double d = 1.0; d <= 200.0; d *= 2.0) {
    const double loss = gentle.path_loss_db(d);
    EXPECT_GT(loss, previous);
    previous = loss;
    if (d > 1.0) {
      EXPECT_GT(harsh.path_loss_db(d), gentle.path_loss_db(d));
    }
  }
}

TEST(PathLoss, BelowReferenceDistanceClamps) {
  const PathLossModel model;
  EXPECT_DOUBLE_EQ(model.path_loss_db(0.1), model.reference_loss_db);
  EXPECT_THROW((void)model.path_loss_db(0.0), precondition_error);
  EXPECT_THROW((void)model.path_loss_db(-1.0), precondition_error);
}

TEST(LinkBudget, ReceivedPowerAndEbN0) {
  const LinkBudget budget;  // 0 dBm tx, -95 noise, +9 gain
  EXPECT_DOUBLE_EQ(budget.received_power_dbm(60.0), -60.0);
  // Eb/N0 = 0 - 60 - (-95) + 9 = 44 dB.
  EXPECT_NEAR(budget.ebn0_for_loss(60.0).db(), 44.0, 1e-12);
}

TEST(LinkBudget, NearbyLinksAreEssentiallyPerfect) {
  const LinkBudget budget;
  const PathLossModel propagation;
  const EbN0 close = budget.ebn0_at(5.0, propagation);
  EXPECT_LT(oqpsk_ber(close), 1e-12);
}

TEST(LinkBudget, FarLinksDegrade) {
  const LinkBudget budget;
  PathLossModel propagation;
  propagation.exponent = 3.2;
  const EbN0 near = budget.ebn0_at(20.0, propagation);
  const EbN0 far = budget.ebn0_at(200.0, propagation);
  EXPECT_GT(near.linear(), far.linear());
  EXPECT_GT(oqpsk_ber(far), oqpsk_ber(near));
}

TEST(LinkBudget, RangeInvertsTheBudget) {
  const LinkBudget budget;
  PathLossModel propagation;
  propagation.exponent = 2.8;
  const EbN0 required = EbN0::from_linear(7.0);
  const double range = range_for_ebn0(budget, propagation, required);
  EXPECT_GT(range, propagation.reference_distance_m);
  // At the computed range the delivered Eb/N0 equals the requirement.
  EXPECT_NEAR(budget.ebn0_at(range, propagation).db(), required.db(),
              1e-9);
  // Beyond it, less.
  EXPECT_LT(budget.ebn0_at(range * 2.0, propagation).db(), required.db());
}

TEST(LinkBudget, ImpossibleBudgetReturnsReferenceDistance) {
  LinkBudget feeble;
  feeble.tx_power_dbm = -100.0;
  const PathLossModel propagation;
  EXPECT_DOUBLE_EQ(
      range_for_ebn0(feeble, propagation, EbN0::from_linear(7.0)),
      propagation.reference_distance_m);
}

}  // namespace
}  // namespace whart::phy

// Executable Figure 4 (Section 7.1): the office mobility experiment at
// bench_fig4_office_handoffs's parameters (400 simulated hours, seed 1)
// must reproduce the figures EXPERIMENTS.md reports for the paper's two
// conclusions:
//   (a) the three-level predictor is accurate: level 1 (portable profile)
//       predicts the next cell 89.3 % of the time;
//   (b) brute-force reservation is wasteful: 2.94 reservations per handoff,
//       34.0 % of them used, against 1.00 per handoff, 89.3 % used, for the
//       predictive scheme.
// Each figure must lie within half a unit of its last printed digit plus
// four binomial standard errors at this run's sample size, the same
// noise allowance paper_fig6_test uses.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "experiments/fig4_mobility.h"

namespace imrm::experiments {
namespace {

/// Asserts |got - reported| <= rounding + 4 se.
void expect_band(const char* what, double got, double reported, double rounding,
                 double se) {
  EXPECT_LE(std::abs(got - reported), rounding + 4.0 * se)
      << what << ": " << got << " vs EXPERIMENTS.md " << reported << " (se " << se
      << ")";
}

double binomial_se(double p, std::size_t n) { return std::sqrt(p * (1.0 - p) / double(n)); }

// One test, so that ctest runs the 400 hours once.
TEST(PaperFig4, PredictorAndReservationCostMatchExperiments) {
  Fig4Config config;
  config.hours = 400.0;
  config.seed = 1;
  const Fig4Result r = run_fig4(config);
  ASSERT_GT(r.portable_profile.predictions, 10000u);
  ASSERT_GT(r.total_handoffs, 10000u);
  ASSERT_GT(r.predictive_reservations, 10000u);

  // (a) Level-1 accuracy.
  const double accuracy = r.portable_profile.accuracy();
  expect_band("level-1 accuracy", accuracy, 0.893, 0.0005,
              binomial_se(accuracy, r.portable_profile.predictions));

  // (b) Brute force reserves in every neighbour of the source cell and each
  // handoff uses exactly one of them, so "used" is handoffs / reservations
  // and reservations per handoff is its reciprocal (delta-method se).
  const double brute_used =
      double(r.total_handoffs) / double(r.brute_force_reservations);
  const double brute_used_se = binomial_se(brute_used, r.brute_force_reservations);
  expect_band("brute force used", brute_used, 0.340, 0.0005, brute_used_se);
  expect_band("brute force per handoff", 1.0 / brute_used, 2.94, 0.005,
              brute_used_se / (brute_used * brute_used));

  // The predictive scheme reserves at most once per handoff, in the
  // predicted cell.
  const double predictive_per_handoff =
      double(r.predictive_reservations) / double(r.total_handoffs);
  expect_band("predictive per handoff", predictive_per_handoff, 1.00, 0.005,
              binomial_se(predictive_per_handoff, r.total_handoffs));
  const double predictive_used =
      double(r.predictive_hits) / double(r.predictive_reservations);
  expect_band("predictive used", predictive_used, 0.893, 0.0005,
              binomial_se(predictive_used, r.predictive_reservations));
}

}  // namespace
}  // namespace imrm::experiments

// Executable Figure 6 (Section 7.2): the 40 (T, P_QOS) two-cell
// configurations of bench_fig6_default_algo, at its own parameters
// (duration 2000, warmup 50, seed 3), run on sim::ReplicationRunner. The
// paper's curve shape is asserted with the same noise-aware rule as the
// repository benchmark's fig6_sweep check:
//   - per T block, P_b rises by at most four binomial standard errors
//     between adjacent P_QOS (loosening P_QOS moves down the curve),
//   - the loosest P_QOS blocks at most a third as often as the tightest,
//   - at P_QOS = 0.9, where admission reduces to the physical fit, all four
//     T curves give the identical (P_b, P_d).
// The sweep must also come out identical at 1 and 4 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <vector>

#include "experiments/twocell.h"
#include "sim/replication.h"

namespace imrm::experiments {
namespace {

constexpr double kWindows[] = {0.02, 0.05, 0.1, 0.2};
constexpr double kPqos[] = {0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 0.9};
constexpr std::size_t kPerWindow = std::size(kPqos);

std::vector<TwoCellResult> run_sweep(std::size_t threads) {
  std::vector<TwoCellConfig> configs;
  for (const double window : kWindows) {
    for (const double p_qos : kPqos) {
      TwoCellConfig c;
      c.window = window;
      c.p_qos = p_qos;
      c.duration = 2000.0;
      c.warmup = 50.0;
      c.seed = 3;
      configs.push_back(c);
    }
  }
  std::vector<TwoCellResult> results(configs.size());
  sim::ReplicationRunner(threads).run_indexed(
      configs.size(), [&](std::size_t i) { results[i] = run_twocell(configs[i]); });
  return results;
}

// One test, so that ctest runs the two sweeps once.
TEST(PaperFig6, SweepHasThePapersShapeAtOneAndFourThreads) {
  const std::vector<TwoCellResult> serial = run_sweep(1);
  const std::vector<TwoCellResult> r = run_sweep(4);
  ASSERT_EQ(serial.size(), r.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(serial[i].new_attempts, r[i].new_attempts) << "config " << i;
    EXPECT_EQ(serial[i].new_blocked, r[i].new_blocked) << "config " << i;
    EXPECT_EQ(serial[i].handoff_attempts, r[i].handoff_attempts) << "config " << i;
    EXPECT_EQ(serial[i].handoff_dropped, r[i].handoff_dropped) << "config " << i;
  }

  const auto at = [&](std::size_t w, std::size_t q) -> const TwoCellResult& {
    return r[w * kPerWindow + q];
  };
  const std::size_t loosest = kPerWindow - 1;
  for (std::size_t w = 0; w < std::size(kWindows); ++w) {
    for (std::size_t q = 1; q < kPerWindow; ++q) {
      const TwoCellResult& a = at(w, q - 1);
      const TwoCellResult& b = at(w, q);
      const double se = std::sqrt(a.p_block() / double(a.new_attempts) +
                                  b.p_block() / double(b.new_attempts));
      EXPECT_LE(b.p_block(), a.p_block() + 4.0 * se)
          << "P_b rises at T=" << kWindows[w] << ", P_QOS " << kPqos[q - 1] << " -> "
          << kPqos[q];
    }
    EXPECT_LE(at(w, loosest).p_block() * 3.0, at(w, 0).p_block())
        << "P_b does not fall across P_QOS at T=" << kWindows[w];
    EXPECT_EQ(at(w, loosest).p_block(), at(0, loosest).p_block())
        << "T curves differ at P_QOS=" << kPqos[loosest] << ", T=" << kWindows[w];
    EXPECT_EQ(at(w, loosest).p_drop(), at(0, loosest).p_drop())
        << "T curves differ at P_QOS=" << kPqos[loosest] << ", T=" << kWindows[w];
  }
}

}  // namespace
}  // namespace imrm::experiments

// Tests for cell bandwidth accounting, the lounge handoff predictors, and
// the probabilistic reservation model (eqs. 3-7).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "reservation/cell_bandwidth.h"
#include "reservation/handoff_predictor.h"
#include "reservation/probabilistic.h"

namespace imrm::reservation {
namespace {

using qos::kbps;
using qos::mbps;

constexpr PortableId kP1{1}, kP2{2}, kP3{3};

TEST(CellBandwidth, NewConnectionsRespectCapacity) {
  CellBandwidth cell(kbps(100));
  EXPECT_TRUE(cell.admit_new(kP1, kbps(60)));
  EXPECT_FALSE(cell.admit_new(kP2, kbps(60)));
  EXPECT_TRUE(cell.admit_new(kP2, kbps(40)));
  EXPECT_DOUBLE_EQ(cell.allocated(), kbps(100));
}

TEST(CellBandwidth, ReleaseFreesCapacity) {
  CellBandwidth cell(kbps(100));
  ASSERT_TRUE(cell.admit_new(kP1, kbps(60)));
  cell.release(kP1);
  EXPECT_DOUBLE_EQ(cell.allocated(), 0.0);
  EXPECT_TRUE(cell.admit_new(kP2, kbps(100)));
}

TEST(CellBandwidth, SpecificReservationBlocksNewButNotItsHandoff) {
  CellBandwidth cell(kbps(100));
  cell.reserve_for(kP1, kbps(50));
  // New connection sees only 50 free.
  EXPECT_FALSE(cell.admit_new(kP2, kbps(60)));
  // P1's handoff may use its own reservation.
  EXPECT_TRUE(cell.admit_handoff(kP1, kbps(60)));
  EXPECT_DOUBLE_EQ(cell.reservation_for(kP1), 0.0);  // consumed
}

TEST(CellBandwidth, HandoffCannotTouchOthersReservations) {
  CellBandwidth cell(kbps(100));
  cell.reserve_for(kP1, kbps(50));
  ASSERT_TRUE(cell.admit_new(kP2, kbps(40)));
  // P3 hands off: free = 100 - 40 - 50 = 10.
  EXPECT_FALSE(cell.admit_handoff(kP3, kbps(20)));
  EXPECT_TRUE(cell.admit_handoff(kP3, kbps(10)));
}

TEST(CellBandwidth, AnonymousPoolServesHandoffsOnly) {
  CellBandwidth cell(kbps(100));
  cell.set_anonymous_reservation(kbps(30));
  EXPECT_FALSE(cell.admit_new(kP1, kbps(80)));   // 30 held back
  EXPECT_TRUE(cell.admit_handoff(kP2, kbps(80)));  // pool absorbs the handoff
  // The pool shrank by the consumed amount.
  EXPECT_DOUBLE_EQ(cell.anonymous_reservation(), 0.0);
}

TEST(CellBandwidth, PoolPartiallyConsumed) {
  CellBandwidth cell(kbps(100));
  cell.set_anonymous_reservation(kbps(30));
  EXPECT_TRUE(cell.admit_handoff(kP1, kbps(10)));
  EXPECT_DOUBLE_EQ(cell.anonymous_reservation(), kbps(20));
}

TEST(CellBandwidth, FailedHandoffStillConsumesOwnReservation) {
  CellBandwidth cell(kbps(100));
  ASSERT_TRUE(cell.admit_new(kP2, kbps(95)));
  cell.reserve_for(kP1, kbps(5));
  EXPECT_FALSE(cell.admit_handoff(kP1, kbps(20)));
  EXPECT_DOUBLE_EQ(cell.reservation_for(kP1), 0.0);
}

TEST(CellBandwidth, ReserveForReplacesPrevious) {
  CellBandwidth cell(kbps(100));
  cell.reserve_for(kP1, kbps(20));
  cell.reserve_for(kP1, kbps(30));
  EXPECT_DOUBLE_EQ(cell.reservation_for(kP1), kbps(30));
  EXPECT_DOUBLE_EQ(cell.reserved_total(), kbps(30));
  cell.cancel_reservation(kP1);
  EXPECT_DOUBLE_EQ(cell.reserved_total(), 0.0);
}

TEST(CellBandwidth, ClearSpecificReservations) {
  CellBandwidth cell(kbps(100));
  cell.reserve_for(kP1, kbps(20));
  cell.reserve_for(kP2, kbps(30));
  cell.set_anonymous_reservation(kbps(10));
  cell.clear_specific_reservations();
  EXPECT_DOUBLE_EQ(cell.reserved_total(), kbps(10));  // anonymous survives
}

TEST(CellBandwidth, SetAllocationAdjustsTotals) {
  CellBandwidth cell(kbps(100));
  ASSERT_TRUE(cell.admit_new(kP1, kbps(16)));
  cell.set_allocation(kP1, kbps(64));
  EXPECT_DOUBLE_EQ(cell.allocated(), kbps(64));
  cell.set_allocation(kP1, kbps(16));
  EXPECT_DOUBLE_EQ(cell.allocated(), kbps(16));
}

TEST(CellBandwidth, UtilizationFraction) {
  CellBandwidth cell(kbps(100));
  ASSERT_TRUE(cell.admit_new(kP1, kbps(25)));
  EXPECT_DOUBLE_EQ(cell.utilization_fraction(), 0.25);
}

// ---- predictors ---------------------------------------------------------

TEST(LeastSquares, ExactLinearDataRecovered) {
  // n = 3t + 2 sampled at t = 4, 5, 6.
  const LinearFit fit = least_squares_3(14.0, 17.0, 20.0, 6.0);
  EXPECT_NEAR(fit.a, 3.0, 1e-12);
  EXPECT_NEAR(fit.m, 2.0, 1e-12);
  EXPECT_NEAR(fit.at(7.0), 23.0, 1e-12);
}

TEST(LeastSquares, NoisyDataFitsTrend) {
  const LinearFit fit = least_squares_3(10.0, 13.0, 14.0, 2.0);
  EXPECT_NEAR(fit.a, 2.0, 1e-12);  // (14-10)/2
  // Mean condition: fit passes through (t_mean, n_mean) = (1, 37/3).
  EXPECT_NEAR(fit.at(1.0), 37.0 / 3.0, 1e-12);
}

TEST(CafeteriaPredictor, NeedsThreeSamplesForTrend) {
  CafeteriaPredictor p;
  EXPECT_DOUBLE_EQ(p.predict_next(), 0.0);
  p.push(10.0);
  EXPECT_DOUBLE_EQ(p.predict_next(), 10.0);  // fallback: latest value
  p.push(12.0);
  EXPECT_DOUBLE_EQ(p.predict_next(), 12.0);
  p.push(14.0);
  EXPECT_NEAR(p.predict_next(), 16.0, 1e-9);  // linear trend continues
}

TEST(CafeteriaPredictor, SlidingWindowTracksRecentTrend) {
  CafeteriaPredictor p;
  for (double v : {100.0, 50.0, 20.0, 18.0, 16.0}) p.push(v);
  // Window is {20, 18, 16}: slope -2, next = 14.
  EXPECT_NEAR(p.predict_next(), 14.0, 1e-9);
}

TEST(CafeteriaPredictor, NegativeExtrapolationClampsToZero) {
  CafeteriaPredictor p;
  p.push(4.0);
  p.push(2.0);
  p.push(0.0);
  EXPECT_DOUBLE_EQ(p.predict_next(), 0.0);  // trend says -2; counts cannot
}

TEST(OneStepPredictor, RepeatsLastObservation) {
  OneStepPredictor p;
  EXPECT_DOUBLE_EQ(p.predict_next(), 0.0);
  p.push(7.0);
  EXPECT_DOUBLE_EQ(p.predict_next(), 7.0);
  p.push(3.0);
  EXPECT_DOUBLE_EQ(p.predict_next(), 3.0);
}

// ---- probabilistic model (eqs. 3-7) --------------------------------------

TEST(BinomialPmf, MatchesClosedForm) {
  const auto pmf = binomial_pmf(4, 0.5);
  ASSERT_EQ(pmf.size(), 5u);
  EXPECT_NEAR(pmf[0], 1.0 / 16, 1e-12);
  EXPECT_NEAR(pmf[1], 4.0 / 16, 1e-12);
  EXPECT_NEAR(pmf[2], 6.0 / 16, 1e-12);
  EXPECT_NEAR(pmf[3], 4.0 / 16, 1e-12);
  EXPECT_NEAR(pmf[4], 1.0 / 16, 1e-12);
}

TEST(BinomialPmf, DegenerateCases) {
  EXPECT_EQ(binomial_pmf(0, 0.3).size(), 1u);
  EXPECT_DOUBLE_EQ(binomial_pmf(0, 0.3)[0], 1.0);
  const auto certain = binomial_pmf(5, 1.0);
  EXPECT_DOUBLE_EQ(certain[5], 1.0);
  const auto never = binomial_pmf(5, 0.0);
  EXPECT_DOUBLE_EQ(never[0], 1.0);
}

TEST(BinomialPmf, SumsToOne) {
  for (double p : {0.1, 0.5, 0.9}) {
    const auto pmf = binomial_pmf(40, p);
    double total = 0.0;
    for (double x : pmf) total += x;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

ProbabilisticReservation paper_model(double window, double p_qos) {
  // Figure 6's setup: capacity 40; type 1: b=1, hold 0.2; type 2: b=4,
  // hold 0.25; handoff probability 0.7.
  ProbabilisticReservation::Config config;
  config.capacity_units = 40;
  config.window = window;
  config.p_qos = p_qos;
  config.handoff_prob = 0.7;
  return ProbabilisticReservation(config, {{1, 0.2}, {4, 0.25}});
}

TEST(Probabilistic, StayAndMoveProbabilities) {
  const auto model = paper_model(0.05, 0.01);
  // p_s,1 = exp(-T/0.2) = exp(-0.25)
  EXPECT_NEAR(model.p_stay(0), std::exp(-0.25), 1e-12);
  EXPECT_NEAR(model.p_move(0), (1.0 - std::exp(-0.25)) * 0.7, 1e-12);
  EXPECT_NEAR(model.p_stay(1), std::exp(-0.2), 1e-12);
}

TEST(Probabilistic, EmptySystemNeverBlocks) {
  const auto model = paper_model(0.05, 0.01);
  EXPECT_DOUBLE_EQ(model.nonblocking_probability({0, 0}, {0, 0}), 1.0);
}

TEST(Probabilistic, LightLoadNonblockingNearOne) {
  const auto model = paper_model(0.05, 0.01);
  EXPECT_GT(model.nonblocking_probability({5, 1}, {5, 1}), 0.999);
}

TEST(Probabilistic, OverloadDrivesNonblockingDown) {
  const auto model = paper_model(1.0, 0.01);
  // 80 unit-connections in each cell against capacity 40.
  const double p = model.nonblocking_probability({80, 0}, {80, 0});
  EXPECT_LT(p, 0.5);
}

TEST(Probabilistic, NonblockingMonotoneInLoad) {
  const auto model = paper_model(0.1, 0.01);
  double prev = 1.0;
  for (int n = 0; n <= 60; n += 10) {
    const double p = model.nonblocking_probability({n, 0}, {n, 0});
    EXPECT_LE(p, prev + 1e-12) << "n=" << n;
    prev = p;
  }
}

TEST(Probabilistic, NonblockingMonotoneInWindowForArrivalLoad) {
  // With an empty local cell, the only load is handoff arrivals, whose
  // probability p_m,i = (1 - e^{-mu T}) h grows with the window: P_nb must
  // not increase. (With local stayers the effect is non-monotone, since a
  // larger window also drains the local population — that is by design.)
  double prev = 1.0;
  for (double window : {0.01, 0.05, 0.2, 1.0}) {
    const auto model = paper_model(window, 0.01);
    const double p = model.nonblocking_probability({0, 0}, {50, 3});
    EXPECT_LE(p, prev + 1e-9) << "window=" << window;
    prev = p;
  }
}

TEST(Probabilistic, AdmitRequiresPhysicalFit) {
  const auto model = paper_model(0.001, 0.5);  // trivially satisfied eq. 6
  // 10 type-2 connections use the full 40 units: nothing fits.
  EXPECT_FALSE(model.admit_new(0, {0, 10}, {0, 0}));
  EXPECT_TRUE(model.admit_new(0, {0, 9}, {0, 0}));
}

TEST(Probabilistic, TighterPqosAdmitsLess) {
  // Short window so stayers dominate: eq. 6 then binds before the physical
  // fit does, letting P_QOS discriminate.
  const auto strict = paper_model(0.05, 0.001);
  const auto loose = paper_model(0.05, 0.5);
  // Find the max type-1 count each admits (neighbor moderately loaded).
  auto max_admitted = [](const ProbabilisticReservation& model) {
    std::vector<int> here{0, 0}, neighbor{20, 2};
    while (model.admit_new(0, here, neighbor)) ++here[0];
    return here[0];
  };
  EXPECT_LT(max_admitted(strict), max_admitted(loose));
}

TEST(Probabilistic, ReservedUnitsGrowWithNeighborLoad) {
  const auto model = paper_model(0.5, 0.01);
  const int quiet = model.reserved_units({5, 0}, {0, 0});
  const int busy = model.reserved_units({5, 0}, {60, 5});
  EXPECT_GE(busy, quiet);
  EXPECT_GT(busy, 0);
}

TEST(Probabilistic, UsedUnitsWeighted) {
  const auto model = paper_model(0.5, 0.01);
  EXPECT_EQ(model.used_units({3, 2}), 3 * 1 + 2 * 4);
}

// ---- the admission memo ---------------------------------------------------

/// The fold binomial_pmf used before it worked in place: one zeroed vector
/// per trial, each entry accumulated from the two products that reach it.
std::vector<double> binomial_pmf_by_copies(std::size_t n, double p) {
  std::vector<double> pmf{1.0};
  for (std::size_t trial = 0; trial < n; ++trial) {
    std::vector<double> next(pmf.size() + 1, 0.0);
    for (std::size_t k = 0; k < pmf.size(); ++k) {
      next[k] += pmf[k] * (1.0 - p);
      next[k + 1] += pmf[k] * p;
    }
    pmf = std::move(next);
  }
  return pmf;
}

TEST(BinomialPmf, InPlaceFoldIsBitIdenticalToFoldByCopies) {
  const double ps[] = {0.0,  1e-3, 0.05,           0.1, 0.25,  1.0 / 3.0,
                       0.5,  0.7,  std::exp(-0.25), 0.9, 0.999, 1.0};
  for (const double p : ps) {
    for (std::size_t n = 0; n <= 200; ++n) {
      const std::vector<double> got = binomial_pmf(n, p);
      const std::vector<double> want = binomial_pmf_by_copies(n, p);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k]), std::bit_cast<std::uint64_t>(want[k]))
            << "n=" << n << " p=" << p << " k=" << k;
      }
    }
  }
}

/// Every count vector with 0 <= count_i <= limits[i], first type fastest.
std::vector<std::vector<int>> box_points(const std::vector<int>& limits) {
  std::vector<std::vector<int>> points{std::vector<int>(limits.size(), 0)};
  for (std::size_t i = 0; i < limits.size(); ++i) {
    std::vector<std::vector<int>> grown;
    for (int c = 0; c <= limits[i]; ++c) {
      for (std::vector<int> point : points) {
        point[i] = c;
        grown.push_back(std::move(point));
      }
    }
    points = std::move(grown);
  }
  return points;
}

/// Position of `point` in box_points(limits).
std::size_t box_index(const std::vector<int>& point, const std::vector<int>& limits) {
  std::size_t index = 0, stride = 1;
  for (std::size_t i = 0; i < limits.size(); ++i) {
    index += std::size_t(point[i]) * stride;
    stride *= std::size_t(limits[i]) + 1;
  }
  return index;
}

std::vector<int> box_limits(const ProbabilisticReservation& model) {
  std::vector<int> limits;
  for (std::size_t i = 0; i < model.type_count(); ++i) {
    limits.push_back(model.config().capacity_units / model.type(i).bandwidth_units);
  }
  return limits;
}

/// eq. 6 straight from the uncached P_nb.
bool reference_admit(const ProbabilisticReservation& model, std::size_t type,
                     const std::vector<int>& here, const std::vector<int>& neighbor) {
  if (model.used_units(here) + model.type(type).bandwidth_units >
      model.config().capacity_units) {
    return false;
  }
  std::vector<int> candidate = here;
  ++candidate[type];
  return model.nonblocking_probability(candidate, neighbor) >= 1.0 - model.config().p_qos;
}

/// Asks every (type, here, neighbour) of the box in a shuffled order and
/// then in the reverse order, comparing each answer with `reference_admit`.
/// P_nb is computed once per distinct key (it does not depend on P_QOS).
void expect_memo_matches_reference_over_box(ProbabilisticReservation::Config config,
                                            const std::vector<TypeParams>& types,
                                            const std::vector<double>& p_qos_values) {
  config.p_qos = p_qos_values.front();
  const ProbabilisticReservation reference(config, types);
  const auto limits = box_limits(reference);
  const auto points = box_points(limits);
  // pnb[candidate * points + neighbour] for every candidate that fits.
  std::vector<double> pnb(points.size() * points.size(), -1.0);
  const auto fitting_candidate = [&](std::uint32_t type, const std::vector<int>& here) {
    std::vector<int> candidate = here;
    ++candidate[type];
    const bool fits = reference.used_units(candidate) <= config.capacity_units;
    return fits ? box_index(candidate, limits) : points.size();
  };
  struct Call {
    std::uint32_t type, here, neighbor;
  };
  std::vector<Call> calls;
  std::uint64_t fitting_calls = 0, distinct_keys = 0;
  for (std::uint32_t h = 0; h < points.size(); ++h) {
    for (std::uint32_t t = 0; t < types.size(); ++t) {
      const std::size_t candidate = fitting_candidate(t, points[h]);
      for (std::uint32_t n = 0; n < points.size(); ++n) {
        calls.push_back({t, h, n});
        if (candidate == points.size()) continue;
        ++fitting_calls;
        double& slot = pnb[candidate * points.size() + n];
        if (slot < 0.0) {
          slot = reference.nonblocking_probability(points[candidate], points[n]);
          ++distinct_keys;
        }
      }
    }
  }
  std::mt19937_64 rng(17);
  std::shuffle(calls.begin(), calls.end(), rng);
  for (const double p_qos : p_qos_values) {
    config.p_qos = p_qos;
    const ProbabilisticReservation model(config, types);
    for (int pass = 0; pass < 2; ++pass) {
      for (const Call& c : calls) {
        const std::vector<int>& here = points[c.here];
        const std::size_t candidate = fitting_candidate(c.type, here);
        const bool want = candidate != points.size() &&
                          pnb[candidate * points.size() + c.neighbor] >= 1.0 - p_qos;
        ASSERT_EQ(model.admit_new(c.type, here, points[c.neighbor]), want)
            << "p_qos=" << p_qos << " pass=" << pass << " type=" << c.type
            << " here=" << c.here << " neighbor=" << c.neighbor;
      }
      std::reverse(calls.begin(), calls.end());
    }
    // Each distinct key was evaluated once; every other fitting test hit.
    const auto stats = model.memo_stats();
    EXPECT_EQ(stats.misses, distinct_keys) << "p_qos=" << p_qos;
    EXPECT_EQ(stats.hits, 2 * fitting_calls - distinct_keys) << "p_qos=" << p_qos;
  }
}

TEST(ProbabilisticMemo, PaperModelMatchesUncachedRuleOverTheWholeBox) {
  for (const double window : {0.02, 0.2}) {
    ProbabilisticReservation::Config config;
    config.capacity_units = 40;
    config.window = window;
    config.handoff_prob = 0.7;
    expect_memo_matches_reference_over_box(config, {{1, 0.2}, {4, 0.25}}, {0.0005, 0.1});
  }
}

TEST(ProbabilisticMemo, OneTypeModelMatchesUncachedRule) {
  ProbabilisticReservation::Config config;
  config.capacity_units = 30;
  config.window = 0.1;
  config.handoff_prob = 0.5;
  expect_memo_matches_reference_over_box(config, {{1, 0.3}}, {0.001, 0.05});
}

TEST(ProbabilisticMemo, ThreeTypeModelMatchesUncachedRule) {
  ProbabilisticReservation::Config config;
  config.capacity_units = 10;
  config.window = 0.2;
  config.handoff_prob = 0.8;
  expect_memo_matches_reference_over_box(config, {{1, 0.2}, {2, 0.5}, {3, 1.0}},
                                         {0.002, 0.1});
}

TEST(ProbabilisticMemo, CountsOutsideTheBoxAreEvaluatedDirectly) {
  const auto model = paper_model(0.1, 0.01);
  const std::vector<std::vector<int>> heres{{0, 0}, {10, 2}, {-3, 2}, {5, -1}, {39, 0}};
  const std::vector<std::vector<int>> neighbors{
      {41, 0}, {0, 11}, {60, 5}, {120, 0}, {-1, 0}, {3, -2}};
  const auto ask_all = [&] {
    for (const auto& here : heres) {
      for (const auto& neighbor : neighbors) {
        for (std::size_t type = 0; type < 2; ++type) {
          EXPECT_EQ(model.admit_new(type, here, neighbor),
                    reference_admit(model, type, here, neighbor));
        }
      }
    }
  };
  ask_all();
  ask_all();
  // A negative count here can take the candidate itself out of the box.
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::vector<int>& here : {std::vector<int>{-2, 0}, std::vector<int>{-2, 1}}) {
      EXPECT_EQ(model.admit_new(0, here, {0, 0}), reference_admit(model, 0, here, {0, 0}));
    }
    EXPECT_EQ(model.admit_new(1, {3, -2}, {1, 1}), reference_admit(model, 1, {3, -2}, {1, 1}));
  }
  // Nothing so far was memoized: every test that fits evaluated eq. 5.
  EXPECT_EQ(model.memo_stats().hits, 0u);
  EXPECT_GT(model.memo_stats().misses, 0u);
  EXPECT_EQ(model.memo_stats().bytes, 0u);

  // With every in-box neighbour memoized, out-of-box counts still miss: no
  // out-of-box key aliases an in-box one.
  for (const auto& neighbor : box_points(box_limits(model))) {
    for (const auto& here : heres) {
      for (std::size_t type = 0; type < 2; ++type) (void)model.admit_new(type, here, neighbor);
    }
  }
  const auto warmed = model.memo_stats();
  ask_all();
  EXPECT_EQ(model.memo_stats().hits, warmed.hits);
}

TEST(ProbabilisticMemo, ModelOverTheBudgetDoesNotMemoize) {
  ProbabilisticReservation::Config config;
  config.capacity_units = 200;  // (201 * 51)^2 entries: far over budget
  config.window = 0.05;
  config.p_qos = 0.01;
  const ProbabilisticReservation model(config, {{1, 0.2}, {4, 0.25}});
  for (int here = 0; here <= 200; here += 20) {
    for (int neighbor = 0; neighbor <= 200; neighbor += 40) {
      EXPECT_EQ(model.admit_new(0, {here, 2}, {neighbor, 1}),
                reference_admit(model, 0, {here, 2}, {neighbor, 1}));
    }
  }
  EXPECT_EQ(model.memo_stats().hits, 0u);
  EXPECT_EQ(model.memo_stats().bytes, 0u);
}

TEST(ProbabilisticMemo, CopiedAndMovedModelsKeepAnsweringCorrectly) {
  const auto warm_up = [](const ProbabilisticReservation& model) {
    for (int n = 0; n <= 39; n += 3) (void)model.admit_new(0, {n / 2, 1}, {n, 2});
  };
  auto warm = paper_model(0.05, 0.01);
  warm_up(warm);
  const auto warm_stats = warm.memo_stats();
  ASSERT_EQ(warm_stats.misses, 14u);

  // A copy inherits the memo: the same tests are all hits there.
  const ProbabilisticReservation copied = warm;
  warm_up(copied);
  EXPECT_EQ(copied.memo_stats().misses, warm_stats.misses);
  EXPECT_EQ(copied.memo_stats().hits, warm_stats.hits + 14);

  ProbabilisticReservation source = warm;
  const ProbabilisticReservation moved = std::move(source);
  auto assigned = paper_model(0.2, 0.5);
  (void)assigned.admit_new(0, {0, 0}, {0, 0});
  assigned = moved;
  auto move_assigned = paper_model(0.2, 0.5);
  ProbabilisticReservation source2 = warm;
  move_assigned = std::move(source2);

  const auto points = box_points(box_limits(warm));
  const ProbabilisticReservation* models[] = {&warm, &copied, &moved, &assigned,
                                              &move_assigned};
  for (const ProbabilisticReservation* model : models) {
    EXPECT_EQ(model->config().window, 0.05);
    for (std::size_t h = 0; h < points.size(); h += 7) {
      for (std::size_t n = 0; n < points.size(); n += 11) {
        for (std::size_t type = 0; type < 2; ++type) {
          ASSERT_EQ(model->admit_new(type, points[h], points[n]),
                    reference_admit(warm, type, points[h], points[n]));
        }
      }
    }
  }
}

/// Eq. 7 by the same greedy growth, with every test straight from P_nb.
int reference_reserved_units(const ProbabilisticReservation& model, std::vector<int> here,
                             const std::vector<int>& neighbor) {
  bool grew = true;
  while (grew) {
    grew = false;
    for (std::size_t i = 0; i < model.type_count(); ++i) {
      if (reference_admit(model, i, here, neighbor)) {
        ++here[i];
        grew = true;
      }
    }
  }
  return std::max(model.config().capacity_units - model.used_units(here), 0);
}

TEST(ProbabilisticMemo, ReservedUnitsMatchUncachedReference) {
  for (const double window : {0.05, 0.5}) {
    for (const double p_qos : {0.001, 0.01, 0.2}) {
      const auto model = paper_model(window, p_qos);
      for (int here = 0; here <= 40; here += 5) {
        // Neighbour sums beyond the box, as DefaultLoungePolicy passes them.
        for (int neighbor : {0, 7, 20, 40, 41, 90}) {
          for (int big : {0, 2, 5}) {
            const std::vector<int> h{here, big / 2};
            const std::vector<int> n{neighbor, big};
            ASSERT_EQ(model.reserved_units(h, n), reference_reserved_units(model, h, n))
                << "window=" << window << " p_qos=" << p_qos << " here=" << here
                << " neighbor=" << neighbor << " big=" << big;
          }
        }
      }
    }
  }
}

TEST(ProbabilisticMemo, PaperModelMemoSizeFollowsTheBox) {
  const auto model = paper_model(0.05, 0.01);
  EXPECT_EQ(model.memo_stats().bytes, 0u);  // nothing allocated before a test
  (void)model.admit_new(0, {0, 0}, {0, 0});
  // Two bitsets of (41 * 11)^2 bits and pmf triangles of 41 and 11 rows
  // per side, plus a few hundred bytes of scratch.
  const std::size_t bitsets = 2 * ((41 * 11 * 41 * 11 + 63) / 64) * 8;
  const std::size_t pmfs = 2 * (41 * 42 / 2 + 11 * 12 / 2) * sizeof(double);
  EXPECT_GE(model.memo_stats().bytes, bitsets + pmfs);
  EXPECT_LE(model.memo_stats().bytes, bitsets + pmfs + 1024);
  EXPECT_EQ(model.memo_stats().misses, 1u);
  EXPECT_EQ(model.memo_stats().hits, 0u);
  // The key is the candidate: {1, -1} plus one type-2 connection is the
  // same candidate {1, 0}, so this is a hit.
  EXPECT_EQ(model.admit_new(1, {1, -1}, {0, 0}), reference_admit(model, 1, {1, -1}, {0, 0}));
  EXPECT_EQ(model.memo_stats().hits, 1u);
  EXPECT_EQ(model.memo_stats().misses, 1u);
}

}  // namespace
}  // namespace imrm::reservation

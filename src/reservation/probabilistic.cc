#include "reservation/probabilistic.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>

namespace imrm::reservation {

namespace {

/// Folds one more Bernoulli(p) trial in place: pmf[0..n) holds
/// Binomial(n - 1, p) on entry and pmf[0..n] holds Binomial(n, p) on exit.
/// Each entry adds the same two products as a fold into a zeroed copy
/// (0.0 + x == x for the non-negative products here), so the bits match.
void add_trial(double* pmf, std::size_t n, double p) {
  pmf[n] = pmf[n - 1] * p;
  for (std::size_t k = n - 1; k > 0; --k) {
    pmf[k] = pmf[k - 1] * p + pmf[k] * (1.0 - p);
  }
  pmf[0] = pmf[0] * (1.0 - p);
}

/// Convolves `dist` (pmf over bandwidth units, truncated at cap+1 with tail
/// mass lumped into the last bucket) with `count ~ pmf` scaled by
/// `unit_width` units each. `next` is scratch; the two are swapped.
void convolve_scaled(std::vector<double>& dist, std::vector<double>& next,
                     std::span<const double> count_pmf, int unit_width, int cap) {
  const std::size_t size = std::size_t(cap) + 2;  // [0..cap] + overflow bucket
  next.assign(size, 0.0);
  for (std::size_t units = 0; units < dist.size(); ++units) {
    if (dist[units] == 0.0) continue;
    for (std::size_t k = 0; k < count_pmf.size(); ++k) {
      const std::size_t total =
          std::min(units + k * std::size_t(unit_width), size - 1);
      next[total] += dist[units] * count_pmf[k];
    }
  }
  dist.swap(next);
}

/// Eq. 5 with the binomial pmfs supplied by `pmf_of(type, side, n)` (side 0:
/// stayers here, 1: arrivals from the neighbour).
template <class PmfOf>
double nonblocking(const std::vector<TypeParams>& types, int cap,
                   const std::vector<int>& counts_here,
                   const std::vector<int>& counts_neighbor, PmfOf&& pmf_of,
                   std::vector<double>& dist, std::vector<double>& next) {
  assert(counts_here.size() == types.size());
  assert(counts_neighbor.size() == types.size());
  dist.assign(std::size_t(cap) + 2, 0.0);
  dist[0] = 1.0;
  for (std::size_t i = 0; i < types.size(); ++i) {
    const int b = types[i].bandwidth_units;
    if (counts_here[i] > 0) {
      convolve_scaled(dist, next, pmf_of(i, 0, std::size_t(counts_here[i])), b, cap);
    }
    if (counts_neighbor[i] > 0) {
      convolve_scaled(dist, next, pmf_of(i, 1, std::size_t(counts_neighbor[i])), b, cap);
    }
  }
  // P(S <= B_c) = 1 - overflow mass.
  return 1.0 - dist.back();
}

template <class T>
std::size_t heap_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

std::vector<double> binomial_pmf(std::size_t n, double p) {
  assert(p >= 0.0 && p <= 1.0);
  // Start from Binomial(0, p) = {1} and fold in one trial at a time:
  // numerically stable and O(n^2), fine for n <= a few hundred connections.
  std::vector<double> pmf(n + 1, 0.0);
  pmf[0] = 1.0;
  for (std::size_t trial = 1; trial <= n; ++trial) add_trial(pmf.data(), trial, p);
  return pmf;
}

ProbabilisticReservation::ProbabilisticReservation(Config config,
                                                   std::vector<TypeParams> types)
    : config_(config), types_(std::move(types)) {
  assert(config_.capacity_units > 0);
  assert(config_.window > 0.0);
  assert(config_.handoff_prob >= 0.0 && config_.handoff_prob <= 1.0);
  for (const TypeParams& t : types_) {
    assert(t.bandwidth_units > 0 && t.mean_holding > 0.0);
    (void)t;
  }
  // Size the memo box; a model whose bitsets and pmf tables would exceed
  // the budget keeps box_side_ == 0 and evaluates every test directly.
  // Clamping at the budget keeps the products below from overflowing.
  std::size_t side = 1;
  std::size_t pmf_values = 0;
  for (const TypeParams& t : types_) {
    const int limit = config_.capacity_units / t.bandwidth_units;
    box_limit_.push_back(limit);
    stride_.push_back(side);
    const std::size_t extent = std::min(std::size_t(limit) + 1, kMemoBudgetBytes);
    side = std::min(side * extent, kMemoBudgetBytes);
    pmf_values += extent * (extent + 1);  // a triangle of rows 0..limit per side
  }
  const std::size_t bytes = 2 * ((side * side + 63) / 64) * sizeof(std::uint64_t) +
                            pmf_values * sizeof(double);
  if (bytes <= kMemoBudgetBytes) box_side_ = side;
}

double ProbabilisticReservation::p_stay(std::size_t type) const {
  const double mu = 1.0 / types_.at(type).mean_holding;
  return std::exp(-mu * config_.window);
}

double ProbabilisticReservation::p_move(std::size_t type) const {
  return (1.0 - p_stay(type)) * config_.handoff_prob;
}

double ProbabilisticReservation::nonblocking_probability(
    const std::vector<int>& counts_here, const std::vector<int>& counts_neighbor) const {
  std::vector<double> pmf, dist, next;
  const auto fresh_pmf = [&](std::size_t type, int side, std::size_t n) {
    pmf = binomial_pmf(n, side == 0 ? p_stay(type) : p_move(type));
    return std::span<const double>(pmf);
  };
  return nonblocking(types_, config_.capacity_units, counts_here, counts_neighbor,
                     fresh_pmf, dist, next);
}

std::size_t ProbabilisticReservation::memo_index(
    std::size_t type, const std::vector<int>& counts_here,
    const std::vector<int>& counts_neighbor) const {
  if (box_side_ == 0) return kOutsideBox;
  std::size_t index = 0;
  for (std::size_t i = 0; i < types_.size(); ++i) {
    const int candidate = counts_here[i] + (i == type ? 1 : 0);
    const int neighbor = counts_neighbor[i];
    if (candidate < 0 || candidate > box_limit_[i] || neighbor < 0 ||
        neighbor > box_limit_[i]) {
      return kOutsideBox;
    }
    index += stride_[i] * (std::size_t(candidate) + box_side_ * std::size_t(neighbor));
  }
  return index;
}

void ProbabilisticReservation::build_memo() const {
  const std::size_t words = (box_side_ * box_side_ + 63) / 64;
  known_.assign(words, 0);
  admit_.assign(words, 0);
  pmf_rows_.resize(2 * types_.size());
  for (std::size_t i = 0; i < types_.size(); ++i) {
    for (int side = 0; side < 2; ++side) {
      // Row n is Binomial(n, p), folded one trial on from row n - 1.
      std::vector<double>& rows = pmf_rows_[2 * i + std::size_t(side)];
      const double p = side == 0 ? p_stay(i) : p_move(i);
      const std::size_t last = std::size_t(box_limit_[i]);
      rows.assign((last + 1) * (last + 2) / 2, 0.0);
      rows[0] = 1.0;
      for (std::size_t n = 1; n <= last; ++n) {
        double* row = rows.data() + n * (n + 1) / 2;
        std::copy_n(row - n, n, row);
        add_trial(row, n, p);
      }
    }
  }
}

bool ProbabilisticReservation::admit_new(std::size_t type,
                                         const std::vector<int>& counts_here,
                                         const std::vector<int>& counts_neighbor) const {
  const int b = types_.at(type).bandwidth_units;
  if (used_units(counts_here) + b > config_.capacity_units) return false;
  const std::size_t index = memo_index(type, counts_here, counts_neighbor);
  const std::size_t word = index / 64;
  const std::uint64_t bit = std::uint64_t{1} << (index % 64);
  if (index != kOutsideBox) {
    if (known_.empty()) build_memo();
    if ((known_[word] & bit) != 0) {
      ++hits_;
      return (admit_[word] & bit) != 0;
    }
  }
  ++misses_;
  if (index == kOutsideBox) {
    std::vector<int> candidate = counts_here;
    ++candidate[type];
    return nonblocking_probability(candidate, counts_neighbor) >= 1.0 - config_.p_qos;
  }
  candidate_.assign(counts_here.begin(), counts_here.end());
  ++candidate_[type];
  const auto kept_pmf = [&](std::size_t i, int side, std::size_t n) {
    const std::vector<double>& rows = pmf_rows_[2 * i + std::size_t(side)];
    return std::span<const double>(rows.data() + n * (n + 1) / 2, n + 1);
  };
  const bool admit = nonblocking(types_, config_.capacity_units, candidate_, counts_neighbor,
                                 kept_pmf, dist_, next_) >= 1.0 - config_.p_qos;
  known_[word] |= bit;
  if (admit) admit_[word] |= bit;
  return admit;
}

int ProbabilisticReservation::used_units(const std::vector<int>& counts) const {
  int used = 0;
  for (std::size_t i = 0; i < types_.size(); ++i) {
    used += counts[i] * types_[i].bandwidth_units;
  }
  return used;
}

int ProbabilisticReservation::reserved_units(const std::vector<int>& counts_here,
                                             const std::vector<int>& counts_neighbor) const {
  // Grow each type greedily until eq. 6 would break; eq. 7 then says the
  // remainder of B_c must stay reserved for handoffs.
  std::vector<int> maxed = counts_here;
  bool grew = true;
  while (grew) {
    grew = false;
    for (std::size_t i = 0; i < types_.size(); ++i) {
      if (admit_new(i, maxed, counts_neighbor)) {
        ++maxed[i];
        grew = true;
      }
    }
  }
  return std::max(config_.capacity_units - used_units(maxed), 0);
}

ProbabilisticReservation::MemoStats ProbabilisticReservation::memo_stats() const {
  MemoStats stats{hits_, misses_, 0};
  stats.bytes = heap_bytes(known_) + heap_bytes(admit_) + heap_bytes(pmf_rows_) +
                heap_bytes(dist_) + heap_bytes(next_) + heap_bytes(candidate_);
  for (const std::vector<double>& rows : pmf_rows_) stats.bytes += heap_bytes(rows);
  return stats;
}

}  // namespace imrm::reservation

// Probabilistic default reservation algorithm (Section 6.3, eqs. 3-7).
//
// Model: two neighboring cells C_q and C_s, k connection types with integer
// bandwidth demands b_i (in units), each cell of capacity B_c units. Over a
// look-ahead window T:
//   p_s,i = e^{-mu_i T}                  (a type-i connection stays put)
//   p_m,i = (1 - e^{-mu_i T}) h          (it hands off to the neighbor)
// With N_i type-i connections in C_q and s_i in C_s, the number of stayers
// j_i ~ Binomial(N_i, p_s,i) and incoming handoffs l_i ~ Binomial(s_i,
// p_m,i). The non-blocking probability is
//   P_nb = P( sum_i b_i (j_i + l_i) <= B_c )            (eq. 5)
// and admission keeps P_nb >= 1 - P_QOS (eq. 6); the implied reservation is
//   b_resv = B_c - sum_i b_i N_i  (eq. 7, when positive).
//
// The distribution of the weighted binomial sum is computed by exact
// discrete convolution over bandwidth units (no Monte Carlo, no normal
// approximation), truncated at B_c + 1 where the tail mass is lumped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace imrm::reservation {

/// Exact Binomial(n, p) pmf, indices 0..n.
[[nodiscard]] std::vector<double> binomial_pmf(std::size_t n, double p);

struct TypeParams {
  int bandwidth_units = 1;     // b_min,i in integer units
  double mean_holding = 1.0;   // 1/mu_i
};

/// The model of one cell pair. For a fixed model the eq. 6 decision depends
/// only on the integer per-type counts, so `admit_new` memoizes it.
///
/// The memo is a pair of bitsets (known, admit) over the dense box
/// 0 <= count_i <= B_c / b_i of the candidate counts (here, with the new
/// connection) and the neighbour counts: (prod_i (B_c / b_i + 1))^2 bits
/// each. A miss evaluates eq. 5 with binomial pmf tables kept per (type,
/// side, n), (B_c / b_i + 1)(B_c / b_i + 2) / 2 doubles per type and side,
/// and two reused convolution buffers. Bitsets and tables are allocated on
/// the first in-box test that passes the physical fit. Counts outside the
/// box (a negative count, or a neighbour count above B_c / b_i such as a
/// sum over several neighbours) and models whose bitsets and tables would
/// exceed kMemoBudgetBytes are evaluated directly by
/// `nonblocking_probability`. Every path performs the same floating-point
/// operations in the same order, so a decision does not depend on whether
/// or when it was memoized. Fig. 6's model (B_c = 40, b = {1, 4}) has
/// (41 * 11)^2 = 203 401 entries: about 51 KB of bitsets and 15 KB of pmfs.
///
/// `admit_new` and `reserved_units` update the memo through a const
/// reference, so one instance must not be called from two threads at once.
/// Copies and moves carry the memo along; it stays valid because a model's
/// configuration never changes after construction.
class ProbabilisticReservation {
 public:
  struct Config {
    int capacity_units = 40;   // B_c
    double window = 0.05;      // T
    double p_qos = 0.01;       // target handoff-dropping bound P_QOS
    double handoff_prob = 0.7; // h_q
  };

  /// Heap budget above which a model does not memoize at all.
  static constexpr std::size_t kMemoBudgetBytes = std::size_t{1} << 20;

  /// What the memo did. A hit answered an admission test from the bitsets;
  /// a miss evaluated eq. 5 (in the box or outside it). Tests that fail the
  /// physical fit reach neither. `bytes` is the heap the memo, the pmf
  /// tables and the scratch buffers hold.
  struct MemoStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t bytes = 0;
  };

  ProbabilisticReservation(Config config, std::vector<TypeParams> types);

  /// p_s,i and p_m,i for a type.
  [[nodiscard]] double p_stay(std::size_t type) const;
  [[nodiscard]] double p_move(std::size_t type) const;

  /// P_nb (eq. 5) given per-type counts in this cell (N) and the neighbor
  /// (s). Vectors are indexed by type. Uncached: every call recomputes.
  [[nodiscard]] double nonblocking_probability(const std::vector<int>& counts_here,
                                               const std::vector<int>& counts_neighbor) const;

  /// Admission test for a NEW type-`type` connection: would admitting it
  /// (i.e. counts_here[type] + 1) still satisfy P_nb >= 1 - P_QOS, and does
  /// it physically fit? Memoized (see the class comment).
  [[nodiscard]] bool admit_new(std::size_t type, const std::vector<int>& counts_here,
                               const std::vector<int>& counts_neighbor) const;

  /// Bandwidth currently in use by the given counts, in units.
  [[nodiscard]] int used_units(const std::vector<int>& counts) const;

  /// Eq. 7: reservation implied by the maximum admissible single-type
  /// expansion of `counts_here` (how much of B_c must be left free).
  [[nodiscard]] int reserved_units(const std::vector<int>& counts_here,
                                   const std::vector<int>& counts_neighbor) const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t type_count() const { return types_.size(); }
  [[nodiscard]] const TypeParams& type(std::size_t i) const { return types_.at(i); }

  [[nodiscard]] MemoStats memo_stats() const;

 private:
  /// Bit index of (candidate, neighbour) in the memo box, or kOutsideBox.
  [[nodiscard]] std::size_t memo_index(std::size_t type, const std::vector<int>& counts_here,
                                       const std::vector<int>& counts_neighbor) const;
  /// Allocates the bitsets and fills the pmf tables (first in-box test).
  void build_memo() const;

  static constexpr std::size_t kOutsideBox = ~std::size_t{0};

  Config config_;
  std::vector<TypeParams> types_;
  /// Per type, B_c / b_i: the largest in-box count.
  std::vector<int> box_limit_;
  /// Per type, the stride of its candidate count in a memo index; the
  /// neighbour count of the same type has stride stride * box_side_.
  std::vector<std::size_t> stride_;
  std::size_t box_side_ = 0;  // 0: the memo is off for this model

  mutable std::vector<std::uint64_t> known_;
  mutable std::vector<std::uint64_t> admit_;
  /// Binomial pmfs per (type, side) in table 2 * type + side (side 0:
  /// stayers here, 1: arrivals from the neighbour). Row n, for n = 0 up to
  /// the type's box limit, holds n + 1 values from offset n (n + 1) / 2.
  mutable std::vector<std::vector<double>> pmf_rows_;
  mutable std::vector<double> dist_;
  mutable std::vector<double> next_;
  mutable std::vector<int> candidate_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace imrm::reservation

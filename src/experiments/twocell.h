// The two-cell experiment behind Figure 6 (Section 7.2).
//
// Two identical neighboring cells of capacity 40 units carry two connection
// types (b=1: arrival rate 30, mean holding 0.2; b=4: rate 1, holding 0.25),
// each departure handing off to the other cell with probability 0.7. New
// connections pass an admission test; handoffs are admitted whenever they
// physically fit. The experiment measures the new-connection blocking
// probability P_b and the handoff dropping probability P_d, for:
//   - the probabilistic admission rule of Section 6.3 (eqs. 5-6), swept over
//     the window T and the target P_QOS (the Figure 6 family of curves),
//   - a static guard-band baseline (fraction of capacity held back), and
//   - plain capacity admission (no reservation at all).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/signaling.h"
#include "reservation/probabilistic.h"

namespace imrm::obs {
class Registry;
class Tracer;
}  // namespace imrm::obs

namespace imrm::experiments {

enum class AdmissionRule { kProbabilistic, kStaticGuard, kNoReservation };

struct TwoCellType {
  int bandwidth_units = 1;
  double arrival_rate = 30.0;  // per cell, per unit time
  double mean_holding = 0.2;
};

struct TwoCellConfig {
  int capacity_units = 40;
  std::vector<TwoCellType> types{{1, 30.0, 0.2}, {4, 1.0, 0.25}};
  double handoff_prob = 0.7;
  AdmissionRule rule = AdmissionRule::kProbabilistic;
  double window = 0.05;        // T (probabilistic rule)
  double p_qos = 0.01;         // P_QOS (probabilistic rule)
  double guard_fraction = 0.1; // static baseline
  double duration = 400.0;     // simulated time units
  double warmup = 20.0;        // stats ignored before this time
  std::uint64_t seed = 1;
  /// Admission-signaling faults (ISSUE 3): every new-connection and handoff
  /// admission first probes the base station through an UnreliableCall; a
  /// probe that times out after its retry budget degrades to a rejection
  /// (blocked / dropped), never to a hang or a grant. Disabled (trivial
  /// model) by default — a disabled config draws no random numbers, so
  /// fault-free runs are byte-identical to pre-fault builds.
  fault::SignalingFaults faults{};
  /// Optional observability: end-of-run metric export (sim.* totals,
  /// twocell.* attempt/block/drop counters and, for the probabilistic rule,
  /// the admission memo's twocell.admit_memo.{hits,misses,bytes}) and
  /// simulator tracing.
  obs::Registry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

struct TwoCellResult {
  std::size_t new_attempts = 0;
  std::size_t new_blocked = 0;
  std::size_t handoff_attempts = 0;
  std::size_t handoff_dropped = 0;

  [[nodiscard]] double p_block() const {
    return new_attempts ? double(new_blocked) / double(new_attempts) : 0.0;
  }
  [[nodiscard]] double p_drop() const {
    return handoff_attempts ? double(handoff_dropped) / double(handoff_attempts) : 0.0;
  }
};

[[nodiscard]] TwoCellResult run_twocell(const TwoCellConfig& config);

}  // namespace imrm::experiments

#include "experiments/twocell.h"

#include <array>
#include <cassert>
#include <optional>

#include "obs/metrics.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace imrm::experiments {

namespace {

class TwoCellSim {
 public:
  explicit TwoCellSim(const TwoCellConfig& config)
      : config_(config), rng_(config.seed) {
    std::vector<reservation::TypeParams> types;
    for (const TwoCellType& t : config_.types) {
      types.push_back({t.bandwidth_units, t.mean_holding});
    }
    reservation::ProbabilisticReservation::Config pc;
    pc.capacity_units = config_.capacity_units;
    pc.window = config_.window;
    pc.p_qos = config_.p_qos;
    pc.handoff_prob = config_.handoff_prob;
    model_.emplace(pc, std::move(types));
    counts_[0].assign(config_.types.size(), 0);
    counts_[1].assign(config_.types.size(), 0);
    // Only fork a probe stream when faults are on: an untouched rng_ keeps
    // fault-free runs byte-identical to pre-fault builds.
    if (config_.faults.enabled()) probe_.emplace(config_.faults, rng_.fork());
  }

  TwoCellResult run() {
    if (config_.tracer) simulator_.set_tracer(config_.tracer);
    if (probe_ && config_.metrics) probe_->bind_metrics(config_.metrics);
    const auto horizon = sim::SimTime::seconds(config_.duration);
    for (int cell = 0; cell < 2; ++cell) {
      for (std::size_t type = 0; type < config_.types.size(); ++type) {
        schedule_arrival(cell, type);
      }
    }
    simulator_.run_until(horizon);
    if (config_.metrics) {
      obs::Registry& m = *config_.metrics;
      simulator_.collect_metrics(m);
      m.counter("twocell.new_attempts").add(result_.new_attempts);
      m.counter("twocell.new_blocked").add(result_.new_blocked);
      m.counter("twocell.handoff_attempts").add(result_.handoff_attempts);
      m.counter("twocell.handoff_dropped").add(result_.handoff_dropped);
      if (config_.rule == AdmissionRule::kProbabilistic) {
        const auto memo = model_->memo_stats();
        m.counter("twocell.admit_memo.hits").add(memo.hits);
        m.counter("twocell.admit_memo.misses").add(memo.misses);
        m.counter("twocell.admit_memo.bytes").add(memo.bytes);
      }
    }
    return result_;
  }

 private:
  [[nodiscard]] bool measuring() const {
    return simulator_.now().to_seconds() >= config_.warmup;
  }

  [[nodiscard]] int used_units(int cell) const {
    int used = 0;
    for (std::size_t i = 0; i < config_.types.size(); ++i) {
      used += counts_[cell][i] * config_.types[i].bandwidth_units;
    }
    return used;
  }

  [[nodiscard]] bool admit_new(int cell, std::size_t type) const {
    const int b = config_.types[type].bandwidth_units;
    switch (config_.rule) {
      case AdmissionRule::kProbabilistic:
        return model_->admit_new(type, counts_[cell], counts_[1 - cell]);
      case AdmissionRule::kStaticGuard:
        return used_units(cell) + b <=
               int(double(config_.capacity_units) * (1.0 - config_.guard_fraction));
      case AdmissionRule::kNoReservation:
        return used_units(cell) + b <= config_.capacity_units;
    }
    return false;
  }

  /// Handoffs only need to physically fit: the guard band / probabilistic
  /// reservation exists precisely so they can.
  [[nodiscard]] bool admit_handoff(int cell, std::size_t type) const {
    return used_units(cell) + config_.types[type].bandwidth_units <=
           config_.capacity_units;
  }

  void schedule_arrival(int cell, std::size_t type) {
    const double gap = rng_.exponential_rate(config_.types[type].arrival_rate);
    simulator_.after(sim::Duration::seconds(gap), [this, cell, type] {
      if (measuring()) ++result_.new_attempts;
      // A lost admission probe degrades to a rejection (never a hang).
      if (probe_signaling() && admit_new(cell, type)) {
        ++counts_[cell][type];
        schedule_departure(cell, type);
      } else if (measuring()) {
        ++result_.new_blocked;
      }
      schedule_arrival(cell, type);
    });
  }

  void schedule_departure(int cell, std::size_t type) {
    const double hold = rng_.exponential_mean(config_.types[type].mean_holding);
    simulator_.after(sim::Duration::seconds(hold), [this, cell, type] {
      // The connection leaves this cell; with probability h it hands off to
      // the neighbor, otherwise it terminates.
      assert(counts_[cell][type] > 0);
      --counts_[cell][type];
      if (!rng_.bernoulli(config_.handoff_prob)) return;
      const int other = 1 - cell;
      if (measuring()) ++result_.handoff_attempts;
      if (probe_signaling() && admit_handoff(other, type)) {
        ++counts_[other][type];
        schedule_departure(other, type);
      } else if (measuring()) {
        ++result_.handoff_dropped;
      }
    });
  }

  [[nodiscard]] bool probe_signaling() { return !probe_ || probe_->attempt(); }

  TwoCellConfig config_;
  sim::Rng rng_;
  sim::Simulator simulator_;
  std::optional<fault::UnreliableCall> probe_;
  std::optional<reservation::ProbabilisticReservation> model_;
  std::array<std::vector<int>, 2> counts_;
  TwoCellResult result_;
};

}  // namespace

TwoCellResult run_twocell(const TwoCellConfig& config) {
  return TwoCellSim(config).run();
}

}  // namespace imrm::experiments

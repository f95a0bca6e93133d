// The closed adaptation loop on the campus day (ISSUE 9 tentpole, end to
// end): under an injected Gilbert–Elliott fault window the controller
// renegotiates the adaptive streams down toward b_min, and after the heal
// the concave ramp returns the total grant bit-exactly to the pre-fault
// max-min fixed point. The loop is deterministic (same seed -> byte-equal
// metrics), thread-stable in sweeps, refuses checkpoint/resume, and — when
// disabled — leaves no trace in the metrics at all.
#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "experiments/campus_day.h"
#include "obs/metrics.h"
#include "sim/checkpoint.h"

namespace imrm::experiments {
namespace {

using qos::kbps;
using sim::SimTime;

CampusDayConfig quiet_adapt_config() {
  // No attendees or squatters: the meeting-room account belongs to the
  // adaptive streams alone, so grant arithmetic is exact.
  CampusDayConfig config;
  config.attendees = 0;
  config.squatters = 0;
  config.adapt.enabled = true;
  return config;
}

std::string snapshot_json(obs::Registry& registry) {
  std::ostringstream os;
  registry.snapshot().write_json(os);
  return os.str();
}

TEST(CampusAdaptLoop, ConvergesBackToPrefaultFixedPoint) {
  CampusDayConfig config = quiet_adapt_config();
  const CampusDayResult r = run_campus_day(config);

  // Pre-fault fixed point: every stream granted its full b_max.
  const double full = double(config.adapt.flows) * config.adapt.b_max;
  EXPECT_DOUBLE_EQ(r.adapt_granted_prefault_bps, full);
  // Under the fault the controller renegotiated down — the total grant
  // dipped well below the fixed point (toward the b_min floor)...
  EXPECT_GT(r.renegotiations, 0u);
  EXPECT_LT(r.adapt_granted_min_bps, 0.5 * full);
  EXPECT_GE(r.adapt_granted_min_bps,
            double(config.adapt.flows) * config.adapt.b_min - 1e-6);
  // ...and after the heal the ramp + snap reproduced it bit-exactly.
  EXPECT_EQ(r.adapt_granted_final_bps, r.adapt_granted_prefault_bps);
}

// Golden outcome of the quiet adaptation day (seed 5, four streams, the
// default 0.8 fault over minutes [60, 100)): the same numbers as
// `scenario_cli campus --adapt-loop 1 --attendees 0 --squatters 0 --seed 5`
// reports in its adaptation block. A change to the controller, the shaper,
// the estimators or the grant arithmetic moves them; a deliberate
// re-baseline must say why.
TEST(CampusAdaptLoop, QuietDayMatchesGoldenOutcome) {
  obs::Registry registry;
  CampusDayConfig config = quiet_adapt_config();
  config.metrics = &registry;
  const CampusDayResult r = run_campus_day(config);
  const obs::Snapshot snapshot = registry.snapshot();
  const auto count = [&snapshot](const char* name) -> std::uint64_t {
    const obs::CounterSample* c = snapshot.counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c == nullptr ? 0 : c->value;
  };
  EXPECT_EQ(count("adapt.renegotiations_triggered"), 204u);
  EXPECT_EQ(count("adapt.renegotiations_accepted"), 204u);
  EXPECT_EQ(r.renegotiations, 204u);
  EXPECT_EQ(count("adapt.windows_breached"), 320u);
  EXPECT_EQ(count("adapt.shaper_offered_bits"), 11059456000u);
  EXPECT_EQ(count("adapt.shaper_nonconforming_bits"), 2156800000u);
  // Bit-exact, not approximately: the grant trajectory is deterministic.
  EXPECT_EQ(r.adapt_granted_prefault_bps, 1024000.0);
  EXPECT_EQ(r.adapt_granted_min_bps, 128000.0000008149);
  EXPECT_EQ(r.adapt_granted_final_bps, 1024000.0);
}

TEST(CampusAdaptLoop, FaultFreeLoopHoldsTheFixedPoint) {
  // With the fault disabled the loop still runs every tick; a clean channel
  // must never dislodge the grants (the no-oscillation property, end to
  // end, across seeds).
  for (std::uint64_t seed : {5ull, 6ull, 7ull}) {
    SCOPED_TRACE(seed);
    CampusDayConfig config = quiet_adapt_config();
    config.seed = seed;
    config.adapt.fault_loss = 0.0;
    const CampusDayResult r = run_campus_day(config);
    const double full = double(config.adapt.flows) * config.adapt.b_max;
    EXPECT_EQ(r.renegotiations, 0u);
    EXPECT_DOUBLE_EQ(r.adapt_granted_final_bps, full);
  }
}

TEST(CampusAdaptLoop, DeterministicInSeed) {
  auto run_once = [] {
    obs::Registry registry;
    CampusDayConfig config = quiet_adapt_config();
    config.metrics = &registry;
    const CampusDayResult r = run_campus_day(config);
    return std::pair<std::string, std::size_t>{snapshot_json(registry),
                                               r.renegotiations};
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(CampusAdaptLoop, SweepIsByteStableAcrossThreadCounts) {
  auto sweep_once = [](std::size_t threads) {
    CampusSweepConfig sweep;
    sweep.base = quiet_adapt_config();
    sweep.replications = 4;
    sweep.threads = threads;
    const CampusSweepResult r = run_campus_day_sweep(sweep);
    std::ostringstream os;
    r.metrics.write_json(os);
    return std::pair<std::string, std::size_t>{os.str(), r.renegotiations};
  };
  const auto one = sweep_once(1);
  const auto four = sweep_once(4);
  const auto eight = sweep_once(8);
  EXPECT_GT(one.second, 0u);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
}

TEST(CampusAdaptLoop, RefusesCheckpointAndResume) {
  // The loop's packet-level lambdas are not checkpointable records; the
  // harness must say so loudly instead of freezing a day it cannot restore.
  CampusDayConfig config = quiet_adapt_config();
  EXPECT_THROW((void)checkpoint_campus_day(config, SimTime::minutes(60)),
               sim::CheckpointError);
  CampusDayConfig plain;
  plain.attendees = 0;
  plain.squatters = 0;
  const sim::Checkpoint ckpt = checkpoint_campus_day(plain, SimTime::minutes(60));
  EXPECT_THROW((void)resume_campus_day(config, ckpt), sim::CheckpointError);
}

TEST(CampusAdaptLoop, DisabledLoopLeavesNoTrace) {
  // Loop off: no adapt.* metric exists and the result's adapt fields are
  // zero — the flag-off day is observationally identical to pre-ISSUE-9.
  obs::Registry registry;
  CampusDayConfig config;
  config.attendees = 0;
  config.squatters = 0;
  config.metrics = &registry;
  const CampusDayResult r = run_campus_day(config);
  EXPECT_EQ(r.renegotiations, 0u);
  EXPECT_EQ(r.adapt_granted_final_bps, 0.0);
  const std::string json = snapshot_json(registry);
  EXPECT_EQ(json.find("adapt."), std::string::npos) << json;
}

TEST(CampusAdaptLoop, DefaultDayWithSquattersEnds) {
  // The default 40-attendee day: the adaptive streams keep the room full, so
  // blocked squatters are never admitted late. Their retries must stop at
  // the horizon, and the day must end with these counts.
  CampusDayConfig config;
  config.adapt.enabled = true;
  const CampusDayResult r = run_campus_day(config);
  EXPECT_EQ(r.attendee_drops, 5u);
  EXPECT_EQ(r.squatter_blocks, 77u);
  EXPECT_EQ(r.squatter_admits, 6u);
  EXPECT_EQ(r.handoffs, 380u);
  EXPECT_DOUBLE_EQ(r.adapt_granted_final_bps, kbps(1024));
}

}  // namespace
}  // namespace imrm::experiments

// Sharded campus scenario: shard-count invariance (byte-identical metrics)
// and scenario-level accounting invariants.
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "experiments/sharded_campus.h"

namespace imrm::experiments {
namespace {

ShardedCampusConfig small_config(std::size_t shards) {
  ShardedCampusConfig config;
  config.cells = 10;
  config.shards = shards;
  config.portables_per_cell = 5;
  config.horizon = sim::SimTime::minutes(45);
  config.seed = 42;
  return config;
}

std::string metrics_json(const ShardedCampusResult& result) {
  std::ostringstream os;
  result.metrics.write_json(os);
  return os.str();
}

TEST(ShardedCampus, MetricsAreByteIdenticalAcrossShardCounts) {
  const ShardedCampusResult at1 = run_sharded_campus(small_config(1));
  ASSERT_GT(at1.events_fired, 0u);
  ASSERT_GT(at1.boundary_messages, 0u);
  const std::string golden = metrics_json(at1);
  for (const std::size_t shards : {2, 4, 8}) {
    const ShardedCampusResult at_k = run_sharded_campus(small_config(shards));
    EXPECT_EQ(metrics_json(at_k), golden) << "shards=" << shards;
    EXPECT_EQ(at_k.events_fired, at1.events_fired) << "shards=" << shards;
    EXPECT_EQ(at_k.windows, at1.windows) << "shards=" << shards;
    EXPECT_EQ(at_k.boundary_messages, at1.boundary_messages)
        << "shards=" << shards;
  }
}

// Golden event count of the 32-cell, 4-hour corridor (32 portables per
// cell, seed 11) at K = 1 and 4: the events_fired of `scenario_cli campus
// --shards K --cells 32 --portables 32 --hours 4 --seed 11`. A change to
// the scenario's decisions or to the runner's event accounting moves it; a
// deliberate re-baseline must say why.
TEST(ShardedCampus, CorridorDayMatchesGoldenEventCount) {
  for (const std::size_t shards : {1, 4}) {
    ShardedCampusConfig config;
    config.cells = 32;
    config.shards = shards;
    config.portables_per_cell = 32;
    config.horizon = sim::SimTime::hours(4);
    config.seed = 11;
    const ShardedCampusResult r = run_sharded_campus(config);
    EXPECT_EQ(r.events_fired, 97130u) << "shards=" << shards;
    const obs::CounterSample* fired = r.metrics.counter("sim.events_fired");
    ASSERT_NE(fired, nullptr) << "shards=" << shards;
    EXPECT_EQ(fired->value, 97130u) << "shards=" << shards;
  }
}

TEST(ShardedCampus, RepeatedRunsAreByteIdentical) {
  const std::string a = metrics_json(run_sharded_campus(small_config(4)));
  const std::string b = metrics_json(run_sharded_campus(small_config(4)));
  EXPECT_EQ(a, b);
}

TEST(ShardedCampus, ScenarioInvariantsHold) {
  const ShardedCampusResult r = run_sharded_campus(small_config(2));
  // Every DELIVERED probe is answered exactly once (accepted XOR rejected);
  // probes still in flight at the horizon are the only shortfall, so the
  // answered count can never exceed the sent count.
  const obs::CounterSample* ok = r.metrics.counter("cell.probe_ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_GT(r.probes_sent, 0u);
  EXPECT_GT(ok->value, 0u);
  EXPECT_LE(ok->value + r.probes_rejected, r.probes_sent);
  // Handoffs arrive at most once each (in-flight ones excepted) and either
  // continue or drop at the receiving cell.
  const obs::CounterSample* out = r.metrics.counter("cell.handoff_out");
  ASSERT_NE(out, nullptr);
  EXPECT_GT(out->value, 0u);
  EXPECT_LE(r.handoffs, out->value);  // handoffs == handoff_in
  EXPECT_LE(r.handoff_drops, r.handoffs);
  // The probe RTT histogram records accepted probes whose replies landed.
  const obs::HistogramSample* rtt = r.metrics.histogram("cell.probe_rtt_ms");
  ASSERT_NE(rtt, nullptr);
  EXPECT_GT(rtt->count, 0u);
  EXPECT_LE(rtt->count, ok->value);
  // Conservative rounds delivered every cross-cell message.
  EXPECT_GT(r.windows, 0u);
  EXPECT_GT(r.boundary_messages, 0u);
}

TEST(ShardedCampus, SingleCellDegeneratesToLocalOnly) {
  ShardedCampusConfig config = small_config(4);
  config.cells = 1;
  const ShardedCampusResult r = run_sharded_campus(config);
  EXPECT_GT(r.events_fired, 0u);
  EXPECT_EQ(r.probes_sent, 0u);
  EXPECT_EQ(r.handoffs, 0u);
  EXPECT_EQ(r.boundary_messages, 0u);
}

TEST(ShardedCampus, OversubscribedCellBlocksAndReclaims) {
  ShardedCampusConfig config = small_config(2);
  config.cells = 6;
  config.portables_per_cell = 40;       // far past 16 concurrent sessions
  config.abandon_probability = 0.3;     // plenty of leases to reclaim
  config.horizon = sim::SimTime::hours(1);
  const ShardedCampusResult r = run_sharded_campus(config);
  EXPECT_GT(r.blocks, 0u);
  EXPECT_GT(r.lease_reclaims, 0u);
  // Bandwidth accounting must balance: the peak-allocation gauge never saw
  // a cell exceed its capacity.
  const obs::GaugeSample* allocated = r.metrics.gauge("cell.allocated_bps");
  ASSERT_NE(allocated, nullptr);
  EXPECT_LE(allocated->max, config.cell_capacity_bps + 1.0);
}

}  // namespace
}  // namespace imrm::experiments

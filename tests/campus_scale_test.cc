// Tests for the campus-at-scale harness: both grid engines must reproduce
// their pinned outcomes exactly, runs must be deterministic, and the grid
// floorplan must be a valid walkable map.
#include <gtest/gtest.h>

#include "experiments/campus_scale.h"
#include "experiments/scale_workload.h"
#include "obs/metrics.h"
#include "profiles/profile_server.h"

namespace imrm::experiments {
namespace {

CampusScaleConfig small_config() {
  CampusScaleConfig config;
  config.cells = 30;
  config.portables = 500;
  config.duration = sim::Duration::seconds(1800);
  config.tick = sim::Duration::seconds(5);
  config.seed = 11;
  return config;
}

struct Golden {
  std::uint64_t hash, events, handoffs, new_admitted, new_blocked;
  std::uint64_t handoff_admitted, handoff_dropped, reservations, departures;
  std::size_t state_bytes;
};

void expect_golden(const CampusScaleResult& r, const Golden& g) {
  EXPECT_EQ(r.outcome_hash, g.hash);
  EXPECT_EQ(r.events, g.events);
  EXPECT_EQ(r.handoffs, g.handoffs);
  EXPECT_EQ(r.new_admitted, g.new_admitted);
  EXPECT_EQ(r.new_blocked, g.new_blocked);
  EXPECT_EQ(r.handoff_admitted, g.handoff_admitted);
  EXPECT_EQ(r.handoff_dropped, g.handoff_dropped);
  EXPECT_EQ(r.reservations_placed, g.reservations);
  EXPECT_EQ(r.departures, g.departures);
  EXPECT_EQ(r.state_bytes, g.state_bytes);
  EXPECT_DOUBLE_EQ(r.bytes_per_portable, double(g.state_bytes) / 500.0);
}

// Golden outcomes of the small config. A change to any decision, to the
// order of decisions, or to the state accounting moves these numbers; a
// deliberate re-baseline must say why.
TEST(CampusScale, MonolithMatchesGoldenOutcome) {
  expect_golden(run_campus_scale(small_config()),
                {336605142126680496ull, 8156, 6156, 482, 18, 3548, 260, 3460, 500,
                 508324});  // 1016.648 bytes/portable
}

TEST(CampusScale, ShardedMatchesGoldenOutcome) {
  CampusScaleConfig config = small_config();
  config.shards = 2;
  expect_golden(run_campus_scale_sharded(config),
                {13382417212148687724ull, 8156, 6156, 500, 0, 3859, 274, 2327, 500,
                 77056});  // 154.112 bytes/portable
}

TEST(CampusScale, RunsAreDeterministic) {
  const CampusScaleResult a = run_campus_scale(small_config());
  const CampusScaleResult b = run_campus_scale(small_config());
  EXPECT_EQ(a.outcome_hash, b.outcome_hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.state_bytes, b.state_bytes);
}

TEST(CampusScale, EveryPortableAppearsAndDeparts) {
  const CampusScaleResult r = run_campus_scale(small_config());
  EXPECT_EQ(r.new_admitted + r.new_blocked, 500u);
  EXPECT_EQ(r.departures, 500u);
  EXPECT_GT(r.handoffs, 0u);
  EXPECT_GT(r.state_bytes, 0u);
  EXPECT_GT(r.bytes_per_portable, 0.0);
}

TEST(CampusScale, SeedChangesOutcome) {
  CampusScaleConfig other = small_config();
  other.seed = 12;
  const CampusScaleResult a = run_campus_scale(small_config());
  const CampusScaleResult b = run_campus_scale(other);
  EXPECT_NE(a.outcome_hash, b.outcome_hash);
}

TEST(CampusScale, MetricsExportMatchesResult) {
  obs::Registry registry;
  CampusScaleConfig config = small_config();
  config.metrics = &registry;
  const CampusScaleResult r = run_campus_scale(config);
  const obs::Snapshot snap = registry.snapshot();
  ASSERT_NE(snap.counter("scale.handoffs"), nullptr);
  EXPECT_EQ(snap.counter("scale.handoffs")->value, r.handoffs);
  ASSERT_NE(snap.counter("sim.events_fired"), nullptr);
  EXPECT_EQ(snap.counter("sim.events_fired")->value, r.events);
  ASSERT_NE(snap.gauge("scale.bytes_per_portable"), nullptr);
  EXPECT_DOUBLE_EQ(snap.gauge("scale.bytes_per_portable")->value, r.bytes_per_portable);
  ASSERT_NE(snap.gauge("sim.time_seconds"), nullptr);
  EXPECT_DOUBLE_EQ(snap.gauge("sim.time_seconds")->value, 1800.0);
  // The directory's admission telemetry must agree with the engine counters.
  ASSERT_NE(snap.counter("resv.handoff.dropped"), nullptr);
  EXPECT_EQ(snap.counter("resv.handoff.dropped")->value, r.handoff_dropped);
}

TEST(CampusScale, ShardedMetricsExportMatchesResult) {
  obs::Registry registry;
  CampusScaleConfig config = small_config();
  config.shards = 2;
  config.metrics = &registry;
  const CampusScaleResult r = run_campus_scale_sharded(config);
  const obs::Snapshot snap = registry.snapshot();
  ASSERT_NE(snap.counter("scale.handoff.admitted"), nullptr);
  EXPECT_EQ(snap.counter("scale.handoff.admitted")->value, r.handoff_admitted);
  ASSERT_NE(snap.counter("sim.events_fired"), nullptr);
  EXPECT_EQ(snap.counter("sim.events_fired")->value, r.events);
}

TEST(CampusScale, BothEnginesCountTheSameTicks) {
  CampusScaleConfig config = small_config();
  EXPECT_EQ(detail::scale_tick_count(config), 361u);  // t = 0, then every 5 s
  EXPECT_EQ(run_campus_scale(config).ticks, 361u);
  config.shards = 2;
  EXPECT_EQ(run_campus_scale_sharded(config).ticks, 361u);
  config.tick = sim::Duration::seconds(0);  // clamped to 1 ms
  EXPECT_EQ(detail::scale_tick_count(config), 1800001u);
}

TEST(CampusScale, CalendarBookingDrawsNothing) {
  const CampusScaleConfig config = small_config();
  const mobility::CellMap map = scale_grid_floorplan(config.cells);
  profiles::ProfileServer calendar(net::ZoneId{0});
  const auto booked = detail::generate_scale_workload(config, map, &calendar);
  const auto bare = detail::generate_scale_workload(config, map, nullptr);
  EXPECT_EQ(booked.home, bare.home);
  EXPECT_EQ(booked.room, bare.room);
  EXPECT_EQ(booked.demand, bare.demand);
  for (std::size_t i = 0; i < bare.arena.size(); ++i) {
    EXPECT_EQ(booked.arena[i].time, bare.arena[i].time) << i;
  }
}

TEST(CampusScale, GridFloorplanIsValidAtManySizes) {
  for (const std::size_t cells : {2u, 3u, 10u, 50u, 100u, 1000u}) {
    const mobility::CellMap map = scale_grid_floorplan(cells);
    EXPECT_EQ(map.size(), cells);
    EXPECT_TRUE(map.neighbor_relation_valid()) << cells << " cells";
    EXPECT_FALSE(map.cells_of_class(mobility::CellClass::kMeetingRoom).empty())
        << cells << " cells";
    // Homes exist: offices, or corridors on degenerate grids.
    const bool has_home =
        !map.cells_of_class(mobility::CellClass::kOffice).empty() ||
        !map.cells_of_class(mobility::CellClass::kCorridor).empty();
    EXPECT_TRUE(has_home) << cells << " cells";
    // Every cell has at least one neighbor (the map is connected by
    // construction: vertical spine per column + row-0 backbone).
    for (const mobility::Cell& cell : map.cells()) {
      EXPECT_FALSE(cell.neighbors.empty()) << "cell " << cell.name;
    }
  }
}

}  // namespace
}  // namespace imrm::experiments

// Campus-at-scale harness: a grid campus of N cells and M portables driven
// through class-schedule workloads, at up to 1000 cells x 100k portables.
//
// Two engines run the SAME deterministic generated day (scale_workload.h):
//
//   run_campus_scale — the monolith: dense id-indexed (SoA) arrays, per-cell
//            resident counts maintained in O(1), movers admitted in
//            (destination cell, portable id) order each tick, with the
//            paper's three-level predictor and profiles placing advance
//            reservations. A mobility tick costs O(active movers).
//   run_campus_scale_sharded — one sim::ShardedRunner domain per cell:
//            milestones fire in per-cell tick handlers, walkers travel as
//            boundary messages with one-tick latency, and admission and
//            reservation state is cell-local. It is its own oracle —
//            byte-identical across any shard/batch count (the runner's
//            contract), but deliberately NOT decision-identical with the
//            monolith: global state the monolith consults on the admission
//            path (the ThreeLevelPredictor, the busy-cell census) has no
//            partition-invariant cell-local equivalent, so the sharded engine
//            reserves along the walking route instead of along predicted
//            mobility (see DESIGN.md).
//
// Each engine folds its decisions into `outcome_hash`; tests pin both.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mobility/floorplan.h"
#include "obs/profiler.h"
#include "sim/time.h"

namespace imrm::obs {
class Registry;
class ProgressMeter;
class Tracer;
}  // namespace imrm::obs

namespace imrm::experiments {

struct CampusScaleConfig {
  std::size_t cells = 100;
  std::size_t portables = 1000;
  sim::Duration duration = sim::Duration::seconds(3600);
  /// Scheduler tick; a walking portable advances one cell per tick.
  sim::Duration tick = sim::Duration::seconds(5);
  double cell_capacity_bps = 1.6e6;
  std::uint64_t seed = 5;
  /// Optional metric registry: scale.* counters, resv.* admission telemetry,
  /// scale.bytes_* gauges, and the sim.time_seconds / sim.events_fired pair
  /// the CLI report reads.
  obs::Registry* metrics = nullptr;
  /// Optional wall-clock attribution (ISSUE 7): the tick loop is split into
  /// scale.mobility / scale.admission / scale.prediction / scale.reservation
  /// / scale.profiles (the monolith's zone profile update) phases recorded
  /// once per run. Observation-only — decisions, the outcome hash, and all
  /// metrics are identical with profiling on or off.
  obs::Profiler* profiler = nullptr;
  /// Optional stderr heartbeat, polled once per tick (the sharded engine
  /// polls once per coordinator dispatch, with straggler attribution).
  obs::ProgressMeter* progress = nullptr;
  /// Sharded-engine knobs (run_campus_scale_sharded only; the monolith
  /// ignores all three). `shards` is the worker-thread count —
  /// execution only, results are byte-identical for any value. `batch` is
  /// windows per coordinator dispatch (0 = adaptive), equally result-
  /// invariant. `tracer` receives the runner's wall lanes when profiling.
  std::size_t shards = 1;
  std::size_t batch = 0;
  obs::Tracer* tracer = nullptr;
};

struct CampusScaleResult {
  std::uint64_t events = 0;  // milestones fired + handoffs processed
  std::uint64_t ticks = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t new_admitted = 0;
  std::uint64_t new_blocked = 0;
  std::uint64_t handoff_admitted = 0;
  std::uint64_t handoff_dropped = 0;
  std::uint64_t reservations_placed = 0;
  std::uint64_t departures = 0;
  /// Heap footprint of all live state (directory, profiles, classifier
  /// observations, SoA arrays, milestone arena, scheduler buckets).
  std::size_t state_bytes = 0;
  double bytes_per_portable = 0.0;
  /// Order-sensitive digest of every admission decision: equal across two
  /// runs iff they made identical decisions in identical order. (The
  /// sharded engine folds per-cell digests in cell order — comparable across
  /// shard/batch counts, not with the monolith.)
  std::uint64_t outcome_hash = 0;
  /// Sharded-engine execution totals (zero for the monolith).
  /// `windows` and `boundary_messages` are batch/shard-invariant;
  /// `dispatches` is a pure execution statistic (varies with `batch` and the
  /// adaptive controller) and must never feed golden outputs.
  std::uint64_t windows = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t boundary_messages = 0;
  /// Wall-clock attribution (sharded engine, only when config.profiler was
  /// enabled): shard lanes, dispatch/window histograms. Quarantined from
  /// `outcome_hash` and the metric counters.
  obs::ProfileSnapshot profile;
};

/// Builds the grid floorplan the scale harness runs on: side = ceil(sqrt(N))
/// columns, every third row a corridor (horizontal edges on row 0 only, the
/// backbone), other rows offices/meeting rooms/cafeterias, vertical edges
/// everywhere. Deterministic; exposed for tests.
[[nodiscard]] mobility::CellMap scale_grid_floorplan(std::size_t cells);

[[nodiscard]] CampusScaleResult run_campus_scale(const CampusScaleConfig& config);

/// The grid campus executed through sim::ShardedRunner: one domain per cell
/// (the runner's contiguous worker-block assignment is the cell→shard
/// partitioner), window = config.tick, every cross-cell interaction — a
/// walking portable, an advance reservation, a stale-reservation cancel — a
/// boundary message with one-tick latency. Deterministic and byte-identical
/// for any (shards, batch); config.metrics additionally receives the
/// runner's shard.windows / shard.boundary_messages counters.
[[nodiscard]] CampusScaleResult run_campus_scale_sharded(
    const CampusScaleConfig& config);

}  // namespace imrm::experiments

// Shared core of the two campus-at-scale engines.
//
// The monolithic tick engine (campus_scale.cc) and the sharded per-cell
// engine (campus_scale_sharded.cc) run the SAME
// class-schedule day: every portable gets a home office, a meeting room, one
// class period, a connection-bandwidth demand, and four milestones (appear,
// enter room, leave room, depart) laid out stride-4 in one arena.
// Generation is a pure function of (config, floorplan): one sim::Rng(seed)
// stream consumed in a fixed order, whether or not the optional
// ProfileServer calendar is booked — so engines sharing this workload differ
// only in how they execute it, never in what day they simulate.
//
// The grid-routing helpers live here too: both engines walk portables along
// identical scale_grid_floorplan paths (columns vertically, row 0 as the
// horizontal backbone), and the sharded engine routes its advance
// reservations with the same function. So do the pieces both engines report
// through: the outcome digest, the tick count and the metric export.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mobility/floorplan.h"

namespace imrm::obs {
class Registry;
}  // namespace imrm::obs

namespace imrm::profiles {
class ProfileServer;
}  // namespace imrm::profiles

namespace imrm::experiments {
struct CampusScaleConfig;
struct CampusScaleResult;
}  // namespace imrm::experiments

namespace imrm::experiments::detail {

/// One attendee's day, laid out as a fixed stride-4 slice of the shared
/// milestone arena: appear, enter room, leave room, depart.
struct ScaleMilestone {
  double time = 0.0;
  enum Kind : std::uint8_t { kAppear, kEnter, kLeave, kDepart } kind = kAppear;
};
inline constexpr std::size_t kScaleMilestonesPerPortable = 4;

/// The full generated day, indexed by portable id. All vectors have exactly
/// `config.portables` entries (the arena has stride-4 that many).
struct ScaleWorkload {
  std::vector<std::uint32_t> home;       ///< home office cell
  std::vector<std::uint32_t> room;       ///< assigned meeting room
  std::vector<double> demand;            ///< connection bandwidth (bps)
  std::vector<ScaleMilestone> arena;     ///< stride kScaleMilestonesPerPortable

  [[nodiscard]] std::size_t memory_bytes() const {
    return home.capacity() * sizeof(std::uint32_t) +
           room.capacity() * sizeof(std::uint32_t) +
           demand.capacity() * sizeof(double) +
           arena.capacity() * sizeof(ScaleMilestone);
  }
};

/// Generates the day. When `calendar` is non-null every (room, period)
/// meeting is also booked there — the monolith's predictor reads it; the
/// sharded engine passes nullptr. The RNG draw sequence is identical either
/// way (booking draws nothing).
[[nodiscard]] ScaleWorkload generate_scale_workload(
    const CampusScaleConfig& config, const mobility::CellMap& map,
    profiles::ProfileServer* calendar);

/// Grid side length used by scale_grid_floorplan: ceil(sqrt(cells)).
[[nodiscard]] std::size_t scale_grid_side(std::size_t cells);

/// Scheduler ticks in a run: one at t=0 and one per tick through the
/// duration (a tick below 1 ms counts as 1 ms).
[[nodiscard]] std::size_t scale_tick_count(const CampusScaleConfig& config);

/// Adds the scale.* counters and gauges plus the sim.time_seconds /
/// sim.events_fired pair the CLI report reads.
void export_scale_metrics(const CampusScaleConfig& config,
                          const CampusScaleResult& result, obs::Registry& registry);

/// Seed of the outcome digest (CampusScaleResult::outcome_hash).
inline constexpr std::uint64_t kScaleHashSeed = 0x6a09e667f3bcc908ULL;

/// Folds one value into an order-sensitive outcome digest.
inline void mix(std::uint64_t& hash, std::uint64_t v) {
  hash ^= v + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
}

/// Folds one decision: `tag` names its kind (0x11 appear, 0x22 handoff,
/// 0x44 depart), `ok` its verdict, `detail` the cells involved.
inline void mix_outcome(std::uint64_t& hash, std::uint64_t tag, std::uint32_t p,
                        std::uint64_t detail, bool ok) {
  mix(hash, (tag << 56) | (std::uint64_t(p) << 24) | (ok ? 1 : 0));
  mix(hash, detail);
}

/// One routing step on the grid: climb to the row-0 backbone, traverse it
/// horizontally, then descend the target column. Every step is a valid edge
/// of scale_grid_floorplan by construction.
[[nodiscard]] inline std::uint32_t route_next(std::size_t side,
                                              std::uint32_t from,
                                              std::uint32_t to) {
  const std::uint32_t r = from / std::uint32_t(side), c = from % std::uint32_t(side);
  const std::uint32_t tc = to % std::uint32_t(side);
  if (c != tc) {
    if (r != 0) return from - std::uint32_t(side);  // climb to the backbone
    return c < tc ? from + 1 : from - 1;
  }
  const std::uint32_t tr = to / std::uint32_t(side);
  return r < tr ? from + std::uint32_t(side) : from - std::uint32_t(side);
}

/// The cell just outside a room on the walk in — where an attendee waits
/// between arrive_corridor and enter_room.
[[nodiscard]] inline std::uint32_t gateway_of(std::size_t side, std::uint32_t room) {
  return room >= side ? room - std::uint32_t(side) : room;
}

}  // namespace imrm::experiments::detail

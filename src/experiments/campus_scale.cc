#include "experiments/campus_scale.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "experiments/scale_workload.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "prediction/cell_classifier.h"
#include "prediction/predictor.h"
#include "profiles/profile_server.h"
#include "reservation/directory.h"
#include "sim/random.h"
#include "workload/class_schedule.h"
#include "workload/connection_mix.h"

namespace imrm::experiments {

namespace {

using net::CellId;
using net::PortableId;

constexpr std::uint32_t kNoCell = CellId::invalid().value();

using Milestone = detail::ScaleMilestone;
constexpr std::size_t kMilestonesPerPortable = detail::kScaleMilestonesPerPortable;

struct Mover {
  std::uint32_t to;
  std::uint32_t portable;
  std::uint32_t from;
  bool operator<(const Mover& o) const {
    return to != o.to ? to < o.to : portable < o.portable;
  }
};

class ScaleSim {
 public:
  explicit ScaleSim(const CampusScaleConfig& config)
      : cfg_(config),
        map_(scale_grid_floorplan(config.cells)),
        side_(detail::scale_grid_side(config.cells)),
        server_(net::ZoneId{0}),
        predictor_(map_, server_),
        // Same day as the sharded engine (see scale_workload.h); the
        // meetings are also booked into server_'s calendar for the predictor.
        workload_(detail::generate_scale_workload(config, map_, &server_)),
        n_ticks_(detail::scale_tick_count(config)) {
    for (const mobility::Cell& cell : map_.cells()) {
      directory_.add_cell(cell.id, cfg_.cell_capacity_bps);
    }
    if (cfg_.metrics) directory_.bind_metrics(*cfg_.metrics);

    obs_slot_.assign(map_.size(), -1);
    for (CellId room : map_.cells_of_class(mobility::CellClass::kMeetingRoom)) {
      obs_slot_[room.value()] = int(room_obs_.size());
      room_obs_.emplace_back();
    }

    const std::size_t n = cfg_.portables;
    current_.assign(n, kNoCell);
    prev_.assign(n, kNoCell);
    target_.assign(n, kNoCell);
    connected_.assign(n, 0);
    alive_.assign(n, 0);
    cursor_.assign(n, 0);
    last_reserved_.assign(n, kNoCell);
    occupancy_.assign(map_.size(), 0);
    buckets_.resize(n_ticks_);

    // Each portable's first wakeup is its appear milestone; run_tick sorts
    // the due list, so bucket fill order is immaterial.
    for (std::uint32_t p = 0; p < cfg_.portables; ++p) {
      schedule_at(p, workload_.arena[p * kMilestonesPerPortable].time, /*after_tick=*/0);
    }
  }

  CampusScaleResult run() {
    prof_on_ = cfg_.profiler != nullptr && cfg_.profiler->enabled();
    const std::uint64_t run0 = prof_on_ ? obs::Profiler::now_ns() : 0;
    obs::ProgressMeter* progress = cfg_.progress;
    for (std::size_t t = 0; t < n_ticks_; ++t) {
      run_tick(t);
      if (progress != nullptr && progress->armed()) {
        progress->maybe_emit(double(t + 1) / double(n_ticks_), r_.events);
      }
    }
    if (prof_on_) loop_ns_ = obs::Profiler::now_ns() - run0;
    // End-of-sim flush: force the remaining milestones (ascending portable
    // id, deterministic) so every portable departs — connections released,
    // classifier eviction executed — even when clamped times land on the
    // final tick.
    const double end = cfg_.duration.to_seconds();
    const sim::SimTime end_t = sim::SimTime::seconds(end);
    for (std::uint32_t p = 0; p < cfg_.portables; ++p) {
      if (alive_[p] != 2) fire_milestones(p, end, end_t);
    }
    return finish();
  }

 private:
  void schedule_at(std::uint32_t portable, double when, std::size_t after_tick) {
    if (after_tick >= n_ticks_) return;  // past the horizon; the flush handles it
    const double tick_s = std::max(cfg_.tick.to_seconds(), 1e-3);
    // Ceil: the wakeup tick must not precede the milestone it serves.
    std::size_t idx = std::size_t(std::ceil(when / tick_s));
    idx = std::clamp(idx, after_tick, n_ticks_ - 1);
    buckets_[idx].push_back(portable);
  }

  // --- per-tick processing -------------------------------------------------
  void run_tick(std::size_t t) {
    ++r_.ticks;
    std::vector<std::uint32_t> due = std::move(buckets_[t]);
    if (due.empty()) return;
    std::sort(due.begin(), due.end());
    const double now = double(t) * cfg_.tick.to_seconds();
    const sim::SimTime now_t = sim::SimTime::seconds(now);

    // Phase A: fire due milestones and collect movement intents. Only the
    // scheduled portables are touched — O(active movers), never O(M).
    movers_.clear();
    for (const std::uint32_t p : due) {
      fire_milestones(p, now, now_t);
      if (alive_[p] == 0) {  // not appeared yet; wait for its first milestone
        schedule_next_milestone(p, t);
        continue;
      }
      if (alive_[p] == 2) continue;  // departed
      if (current_[p] != target_[p]) {
        movers_.push_back({route_next(current_[p], target_[p]), p, current_[p]});
      } else {
        schedule_next_milestone(p, t);
      }
    }
    if (movers_.empty()) return;

    // Phase B: one dispatcher pass over the movers, grouped per destination
    // cell, in (destination cell, portable id) order.
    std::sort(movers_.begin(), movers_.end());
    std::size_t i = 0;
    while (i < movers_.size()) {
      std::size_t j = i;
      while (j < movers_.size() && movers_[j].to == movers_[i].to) ++j;
      process_destination_group(i, j, t, now_t);
      i = j;
    }
  }

  void fire_milestones(std::uint32_t p, double now, sim::SimTime now_t) {
    const Milestone* m = &workload_.arena[p * kMilestonesPerPortable];
    while (alive_[p] != 2 && cursor_[p] < kMilestonesPerPortable &&
           m[cursor_[p]].time <= now) {
      const Milestone& ms = m[cursor_[p]];
      ++cursor_[p];
      ++r_.events;
      switch (ms.kind) {
        case Milestone::kAppear: {
          alive_[p] = 1;
          current_[p] = workload_.home[p];
          prev_[p] = kNoCell;
          target_[p] = gateway_of(workload_.room[p]);
          ++occupancy_[workload_.home[p]];
          reservation::CellBandwidth& account = directory_.at(CellId{workload_.home[p]});
          const std::uint64_t a0 = prof_on_ ? obs::Profiler::now_ns() : 0;
          const bool ok = account.admit_new(PortableId{p}, workload_.demand[p]);
          if (prof_on_) {
            admission_ns_ += obs::Profiler::now_ns() - a0;
            ++admission_calls_;
          }
          connected_[p] = ok ? 1 : 0;
          if (ok && account.active_connections() == 1) ++busy_cells_;
          ok ? ++r_.new_admitted : ++r_.new_blocked;
          detail::mix_outcome(hash_, 0x11, p, workload_.home[p], ok);
          break;
        }
        case Milestone::kEnter:
          target_[p] = workload_.room[p];
          break;
        case Milestone::kLeave:
          target_[p] = workload_.home[p];
          break;
        case Milestone::kDepart: {
          const std::uint32_t cur = current_[p];
          if (connected_[p]) release_connection(p, cur);
          cancel_stale_reservation(p, kNoCell);
          if (obs_slot_[cur] >= 0) {
            room_obs_[obs_slot_[cur]].record_exit(PortableId{p}, now_t,
                                                  /*pass_through=*/false);
          }
          const int slot = obs_slot_[workload_.room[p]];
          if (slot >= 0) room_obs_[slot].record_final_departure(PortableId{p});
          --occupancy_[cur];
          alive_[p] = 2;
          ++r_.departures;
          detail::mix_outcome(hash_, 0x44, p, cur, true);
          break;
        }
      }
    }
  }

  void schedule_next_milestone(std::uint32_t p, std::size_t t) {
    if (cursor_[p] >= kMilestonesPerPortable) return;
    schedule_at(p, workload_.arena[p * kMilestonesPerPortable + cursor_[p]].time, t + 1);
  }

  void process_destination_group(std::size_t begin, std::size_t end, std::size_t t,
                                 sim::SimTime now_t) {
    const std::uint32_t to = movers_[begin].to;
    // The destination account and observation slot are fetched once per group.
    reservation::CellBandwidth& dest = directory_.at(CellId{to});
    const int dest_obs = obs_slot_[to];

    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t p = movers_[i].portable;
      const std::uint32_t from = movers_[i].from;

      // Destination occupancy and busy-cell count before admission, from the
      // O(1) bookkeeping; both feed the outcome hash.
      const std::uint64_t occ_before = occupancy_[to];
      const std::uint64_t busy = busy_cells_;

      bool admitted = false;
      if (connected_[p]) {
        const std::uint64_t a0 = prof_on_ ? obs::Profiler::now_ns() : 0;
        release_connection(p, from);
        admitted = dest.admit_handoff(PortableId{p}, workload_.demand[p]);
        if (prof_on_) {
          admission_ns_ += obs::Profiler::now_ns() - a0;
          ++admission_calls_;
        }
        if (admitted) {
          connected_[p] = 1;
          ++r_.handoff_admitted;
          if (dest.active_connections() == 1) ++busy_cells_;
        } else {
          ++r_.handoff_dropped;
        }
      }
      {
        const std::uint64_t c0 = prof_on_ ? obs::Profiler::now_ns() : 0;
        cancel_stale_reservation(p, to);
        if (prof_on_) reservation_ns_ += obs::Profiler::now_ns() - c0;
      }

      --occupancy_[from];
      ++occupancy_[to];
      const std::uint32_t prev2 = prev_[p];
      prev_[p] = from;
      current_[p] = to;
      ++r_.handoffs;
      ++r_.events;

      {
        const std::uint64_t u0 = prof_on_ ? obs::Profiler::now_ns() : 0;
        server_.record_handoff(PortableId{p}, CellId{prev2}, CellId{from}, CellId{to});
        if (prof_on_) {
          profiles_ns_ += obs::Profiler::now_ns() - u0;
          ++profiles_calls_;
        }
      }
      if (obs_slot_[from] >= 0) {
        room_obs_[obs_slot_[from]].record_exit(PortableId{p}, now_t,
                                               /*pass_through=*/prev2 != to);
      }
      if (dest_obs >= 0) room_obs_[dest_obs].record_entry(PortableId{p}, now_t);

      // Advance reservation on the admission path: predict the next cell
      // from the (now cache-resident) profiles and park bandwidth there.
      if (connected_[p]) {
        const std::uint64_t p0 = prof_on_ ? obs::Profiler::now_ns() : 0;
        const prediction::Prediction pred =
            predictor_.predict(PortableId{p}, CellId{from}, CellId{to});
        if (prof_on_) {
          prediction_ns_ += obs::Profiler::now_ns() - p0;
          ++prediction_calls_;
        }
        if (pred.next_cell && directory_.has(*pred.next_cell)) {
          const std::uint64_t rs0 = prof_on_ ? obs::Profiler::now_ns() : 0;
          directory_.at(*pred.next_cell).reserve_for(PortableId{p}, workload_.demand[p]);
          if (prof_on_) {
            reservation_ns_ += obs::Profiler::now_ns() - rs0;
            ++reservation_calls_;
          }
          last_reserved_[p] = pred.next_cell->value();
          ++r_.reservations_placed;
        }
      }

      detail::mix_outcome(hash_, 0x22, p, (std::uint64_t(from) << 20) | to, admitted);
      detail::mix(hash_, occ_before);
      detail::mix(hash_, busy);

      if (current_[p] == target_[p]) {
        schedule_next_milestone(p, t);
      } else if (t + 1 < n_ticks_) {
        buckets_[t + 1].push_back(p);  // keep walking next tick
      }
    }
  }

  void release_connection(std::uint32_t p, std::uint32_t cell) {
    reservation::CellBandwidth& account = directory_.at(CellId{cell});
    account.release(PortableId{p});
    connected_[p] = 0;
    if (account.active_connections() == 0 && busy_cells_ > 0) --busy_cells_;
  }

  /// Drops the advance reservation left in a cell the portable is no longer
  /// headed to. A reservation in `arrived` was consumed by admit_handoff.
  void cancel_stale_reservation(std::uint32_t p, std::uint32_t arrived) {
    const std::uint32_t held = last_reserved_[p];
    if (held == kNoCell) return;
    if (held != arrived) directory_.at(CellId{held}).cancel_reservation(PortableId{p});
    last_reserved_[p] = kNoCell;
  }

  // --- routing on the grid (shared with the sharded engine) ----------------
  std::uint32_t route_next(std::uint32_t from, std::uint32_t to) const {
    return detail::route_next(side_, from, to);
  }
  std::uint32_t gateway_of(std::uint32_t room) const {
    return detail::gateway_of(side_, room);
  }

  // --- reporting -----------------------------------------------------------
  std::size_t state_bytes() const {
    std::size_t total = directory_.memory_bytes() + server_.memory_bytes() +
                        workload_.memory_bytes();
    for (const prediction::CellObservations& obs : room_obs_) {
      total += obs.memory_bytes();
    }
    total += (current_.capacity() + prev_.capacity() + target_.capacity() +
              last_reserved_.capacity()) *
             sizeof(std::uint32_t);
    total += connected_.capacity() + alive_.capacity() + cursor_.capacity();
    total += occupancy_.capacity() * sizeof(std::uint32_t);
    total += buckets_.capacity() * sizeof(std::vector<std::uint32_t>);
    for (const auto& bucket : buckets_) {
      total += bucket.capacity() * sizeof(std::uint32_t);
    }
    return total;
  }

  CampusScaleResult finish() {
    r_.outcome_hash = hash_;
    r_.state_bytes = state_bytes();
    r_.bytes_per_portable =
        cfg_.portables ? double(r_.state_bytes) / double(cfg_.portables) : 0.0;
    if (cfg_.metrics) detail::export_scale_metrics(cfg_, r_, *cfg_.metrics);
    if (prof_on_) {
      // The tick loop splits into the paper's four resource-management
      // phases plus the zone profile update; whatever the fine-grained
      // probes did not claim (milestone firing, routing, occupancy
      // bookkeeping, observation records) is the mobility share.
      obs::Profiler& prof = *cfg_.profiler;
      const std::uint64_t claimed =
          admission_ns_ + prediction_ns_ + reservation_ns_ + profiles_ns_;
      prof.record(prof.intern("scale.mobility"),
                  loop_ns_ - std::min(claimed, loop_ns_), r_.ticks);
      prof.record(prof.intern("scale.admission"), admission_ns_, admission_calls_);
      prof.record(prof.intern("scale.prediction"), prediction_ns_, prediction_calls_);
      prof.record(prof.intern("scale.reservation"), reservation_ns_,
                  reservation_calls_);
      prof.record(prof.intern("scale.profiles"), profiles_ns_, profiles_calls_);
    }
    return r_;
  }

  CampusScaleConfig cfg_;
  mobility::CellMap map_;
  std::size_t side_;
  reservation::ReservationDirectory directory_;
  profiles::ProfileServer server_;
  prediction::ThreeLevelPredictor predictor_;
  detail::ScaleWorkload workload_;  // read-only after construction

  // SoA portable state, indexed by portable id.
  std::vector<std::uint32_t> current_, prev_, target_;
  std::vector<std::uint8_t> connected_;
  std::vector<std::uint8_t> alive_;  // 0 unborn, 1 active, 2 departed
  std::vector<std::uint8_t> cursor_;
  std::vector<std::uint32_t> last_reserved_;

  // O(1) per-cell bookkeeping: residents per cell, cells with a connection.
  std::vector<std::uint32_t> occupancy_;
  std::uint64_t busy_cells_ = 0;

  // Meeting-room observations for the cell classifier (bounded by S2's
  // final-departure eviction).
  std::vector<int> obs_slot_;
  std::vector<prediction::CellObservations> room_obs_;

  // Tick-indexed wakeup calendar; each live portable has exactly one
  // pending wakeup.
  std::size_t n_ticks_ = 0;
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::vector<Mover> movers_;

  std::uint64_t hash_ = detail::kScaleHashSeed;
  CampusScaleResult r_;

  // Wall-clock phase accounting (ISSUE 7); all zero-cost unless prof_on_.
  bool prof_on_ = false;
  std::uint64_t loop_ns_ = 0;
  std::uint64_t admission_ns_ = 0, admission_calls_ = 0;
  std::uint64_t prediction_ns_ = 0, prediction_calls_ = 0;
  std::uint64_t reservation_ns_ = 0, reservation_calls_ = 0;
  std::uint64_t profiles_ns_ = 0, profiles_calls_ = 0;
};

}  // namespace

namespace detail {

std::size_t scale_grid_side(std::size_t cells) {
  std::size_t side = std::size_t(std::ceil(std::sqrt(double(cells))));
  return std::max<std::size_t>(side, 1);
}

std::size_t scale_tick_count(const CampusScaleConfig& config) {
  const double tick_s = std::max(config.tick.to_seconds(), 1e-3);
  return std::size_t(config.duration.to_seconds() / tick_s) + 1;
}

void export_scale_metrics(const CampusScaleConfig& config,
                          const CampusScaleResult& r, obs::Registry& reg) {
  reg.counter("scale.events").add(r.events);
  reg.counter("scale.ticks").add(r.ticks);
  reg.counter("scale.handoffs").add(r.handoffs);
  reg.counter("scale.new.admitted").add(r.new_admitted);
  reg.counter("scale.new.blocked").add(r.new_blocked);
  reg.counter("scale.handoff.admitted").add(r.handoff_admitted);
  reg.counter("scale.handoff.dropped").add(r.handoff_dropped);
  reg.counter("scale.reservations").add(r.reservations_placed);
  reg.counter("scale.departures").add(r.departures);
  reg.gauge("scale.state_bytes").set(double(r.state_bytes));
  reg.gauge("scale.bytes_per_portable").set(r.bytes_per_portable);
  reg.gauge("sim.time_seconds").set(config.duration.to_seconds());
  reg.counter("sim.events_fired").add(r.events);
}

ScaleWorkload generate_scale_workload(const CampusScaleConfig& cfg,
                                      const mobility::CellMap& map,
                                      profiles::ProfileServer* calendar) {
  ScaleWorkload w;
  const std::size_t n = cfg.portables;
  w.home.assign(n, kNoCell);
  w.room.assign(n, kNoCell);
  w.demand.assign(n, 0.0);
  w.arena.assign(n * kScaleMilestonesPerPortable, ScaleMilestone{});

  sim::Rng rng(cfg.seed);
  const workload::ConnectionMix mix = workload::paper_fig5_mix();
  const double dur = cfg.duration.to_seconds();
  const auto clamp_time = [dur](sim::SimTime t) {
    return std::clamp(t.to_seconds(), 0.0, dur);
  };

  std::vector<CellId> offices = map.cells_of_class(mobility::CellClass::kOffice);
  std::vector<CellId> rooms = map.cells_of_class(mobility::CellClass::kMeetingRoom);
  if (offices.empty()) offices = map.cells_of_class(mobility::CellClass::kCorridor);
  assert(!offices.empty() && !rooms.empty());

  // Class periods: 25-minute classes every 40 minutes, first at t=10min;
  // short runs get one period in the middle of the window.
  std::vector<std::pair<double, double>> periods;
  for (double start = 600.0; start + 2100.0 <= dur; start += 2400.0) {
    periods.emplace_back(start, start + 1500.0);
  }
  if (periods.empty()) periods.emplace_back(0.30 * dur, 0.60 * dur);

  // Assign each portable a home office, a meeting room, and one class
  // period; group attendees per (room, period) so one class workload draw
  // covers the whole group.
  const std::size_t groups = rooms.size() * periods.size();
  std::vector<std::vector<std::uint32_t>> group_members(groups);
  for (std::uint32_t p = 0; p < cfg.portables; ++p) {
    w.home[p] = offices[p % offices.size()].value();
    const std::size_t ri = p % rooms.size();
    const std::size_t pi = (p / rooms.size()) % periods.size();
    w.room[p] = rooms[ri].value();
    group_members[ri * periods.size() + pi].push_back(p);
  }

  for (std::size_t ri = 0; ri < rooms.size(); ++ri) {
    for (std::size_t pi = 0; pi < periods.size(); ++pi) {
      const std::vector<std::uint32_t>& members =
          group_members[ri * periods.size() + pi];
      if (members.empty()) continue;
      profiles::Meeting meeting;
      meeting.start = sim::SimTime::seconds(periods[pi].first);
      meeting.stop = sim::SimTime::seconds(periods[pi].second);
      meeting.attendees = members.size();
      if (calendar != nullptr) calendar->calendar(rooms[ri]).book(meeting);

      workload::ClassScheduleConfig schedule;
      schedule.meeting = meeting;
      schedule.passby_per_minute = 0.0;  // pass-by walkers not modeled here
      const workload::ClassWorkload plan =
          workload::generate_class_workload(schedule, rng);
      assert(plan.attendees.size() == members.size());
      for (std::size_t j = 0; j < members.size(); ++j) {
        const std::uint32_t p = members[j];
        const workload::AttendeePlan& a = plan.attendees[j];
        ScaleMilestone* m = &w.arena[p * kScaleMilestonesPerPortable];
        m[0] = {clamp_time(a.arrive_corridor), ScaleMilestone::kAppear};
        m[1] = {clamp_time(a.enter_room), ScaleMilestone::kEnter};
        m[2] = {clamp_time(a.leave_room), ScaleMilestone::kLeave};
        m[3] = {clamp_time(a.depart), ScaleMilestone::kDepart};
        w.demand[p] = mix.sample(rng);
      }
    }
  }
  return w;
}

}  // namespace detail

mobility::CellMap scale_grid_floorplan(std::size_t cells) {
  assert(cells >= 2);
  const std::size_t side = detail::scale_grid_side(cells);

  // First pass: pick classes. Corridor rows every third row; other cells
  // cycle offices with meeting rooms and cafeterias sprinkled in. Guarantee
  // at least one office and one meeting room even on degenerate grids.
  std::vector<mobility::CellClass> classes(cells);
  std::size_t offices = 0, rooms = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    const std::size_t r = i / side;
    if (r % 3 == 0) {
      classes[i] = mobility::CellClass::kCorridor;
    } else if (i % 5 == 2) {
      classes[i] = mobility::CellClass::kMeetingRoom;
      ++rooms;
    } else if (i % 11 == 4) {
      classes[i] = mobility::CellClass::kCafeteria;
    } else {
      classes[i] = mobility::CellClass::kOffice;
      ++offices;
    }
  }
  if (rooms == 0) classes[cells - 1] = mobility::CellClass::kMeetingRoom;
  if (offices == 0 && cells >= 2) {
    if (classes[cells - 2] != mobility::CellClass::kMeetingRoom || rooms > 0) {
      classes[cells - 2] = mobility::CellClass::kOffice;
    } else {
      classes[cells - 1] = mobility::CellClass::kOffice;
      classes[cells - 2] = mobility::CellClass::kMeetingRoom;
    }
  }

  mobility::CellMap map;
  for (std::size_t i = 0; i < cells; ++i) {
    const std::size_t r = i / side, c = i % side;
    map.add_cell(classes[i], "g" + std::to_string(r) + "_" + std::to_string(c));
  }
  for (std::size_t i = 0; i < cells; ++i) {
    const std::size_t r = i / side, c = i % side;
    // Horizontal edges along corridor rows (row 0 is the routing backbone).
    if (r % 3 == 0 && c + 1 < side && i + 1 < cells) {
      map.connect(CellId{std::uint32_t(i)}, CellId{std::uint32_t(i + 1)});
    }
    if (i + side < cells) {
      map.connect(CellId{std::uint32_t(i)}, CellId{std::uint32_t(i + side)});
    }
  }
  assert(map.neighbor_relation_valid());
  return map;
}

CampusScaleResult run_campus_scale(const CampusScaleConfig& config) {
  ScaleSim sim(config);
  return sim.run();
}

}  // namespace imrm::experiments

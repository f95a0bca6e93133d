// grid_campus and grid_campus_sharded: one simulated hour of the
// 1000-cell x 100k-portable grid campus, through the monolithic engine
// (experiments::run_campus_scale, the paper's three-level predictor and
// profiles) or the per-cell sharded engine (run_campus_scale_sharded on
// sim::ShardedRunner).
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "experiments/campus_scale.h"
#include "experiments/scale_workload.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "probe.h"
#include "profiles/profile_server.h"

namespace perfbench {

namespace {

using namespace imrm;

constexpr int kSetupRepeats = 7;

std::string digest_of(const experiments::CampusScaleResult& r) {
  return "hash=" + std::to_string(r.outcome_hash) + " events=" + std::to_string(r.events) +
         " handoffs=" + std::to_string(r.handoffs) +
         " new=" + std::to_string(r.new_admitted) + "/" + std::to_string(r.new_blocked) +
         " handoff=" + std::to_string(r.handoff_admitted) + "/" +
         std::to_string(r.handoff_dropped) +
         " reservations=" + std::to_string(r.reservations_placed) +
         " departures=" + std::to_string(r.departures) +
         " windows=" + std::to_string(r.windows) +
         " boundary=" + std::to_string(r.boundary_messages);
}

std::uint64_t counter(const obs::Registry& reg, const char* name) {
  const obs::Snapshot s = reg.snapshot();
  const obs::CounterSample* c = s.counter(name);
  return c != nullptr ? c->value : 0;
}

void add_shard_layers(Report& report, const experiments::CampusScaleResult& r) {
  const obs::ProfileSnapshot& p = r.profile;
  std::vector<double> busy;
  double barrier_ns = 0.0;
  for (const auto& lane : p.shards) {
    busy.push_back(double(lane.busy_ns) * 1e-9);
    barrier_ns += double(lane.barrier_wait_ns);
  }
  const double max_busy = busy.empty() ? 0.0 : *std::max_element(busy.begin(), busy.end());
  const double mean_busy =
      busy.empty() ? 0.0 : std::accumulate(busy.begin(), busy.end(), 0.0) / double(busy.size());
  const double lane_wall = double(p.profiled_wall_ns) * double(p.shards.size());
  report.layers.push_back({"sim.shard.windows", double(r.windows), "count"});
  report.layers.push_back({"sim.shard.dispatches", double(r.dispatches), "count"});
  report.layers.push_back({"sim.shard.boundary_messages", double(r.boundary_messages), "count"});
  report.layers.push_back({"sim.shard.envelope_bytes", double(p.boundary_bytes), "bytes"});
  report.layers.push_back({"sim.shard.busy_s.max", max_busy, "s"});
  report.layers.push_back({"sim.shard.busy_s.mean", mean_busy, "s"});
  report.layers.push_back({"sim.shard.busy_imbalance", ratio(max_busy, mean_busy), "ratio"});
  report.layers.push_back({"sim.shard.barrier_wait_frac", ratio(barrier_ns, lane_wall), "ratio"});
}

}  // namespace

Report run_grid(const Args& args, bool sharded) {
  experiments::CampusScaleConfig config;
  config.cells = args.cells;
  config.portables = args.portables;
  config.duration = sim::Duration::seconds(args.sim_seconds);
  config.tick = sim::Duration::seconds(5);
  config.seed = args.seed;
  config.shards = sharded ? args.shards : 1;

  Report report;

  // Set-up: the public calls that build the floorplan and the generated day
  // (the monolith books its meetings into a ProfileServer calendar, the
  // sharded engine does not). The engines repeat this work inside their run.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    const mobility::CellMap map = experiments::scale_grid_floorplan(config.cells);
    profiles::ProfileServer calendar(net::ZoneId{0});
    const auto workload =
        experiments::detail::generate_scale_workload(config, map, sharded ? nullptr : &calendar);
    setup_s.push_back(seconds_since(t0));
    report.check(workload.home.size() == config.portables, "generated workload size");
  }

  // The traced binary also collects the engine's own counters: resv.* from
  // the registry and, for the sharded engine, the runner's shard lanes.
  obs::Registry registry;
  obs::Profiler profiler;
  if (kTraced) {
    config.metrics = &registry;
    if (sharded) {
      profiler.set_enabled(true);
      config.profiler = &profiler;
    }
  }

  std::vector<double> wall_s;
  experiments::CampusScaleResult last;
  const std::vector<double> peak_mib = repeat_for(args.seconds, args.max_jobs, [&] {
    reset();
    const auto t0 = Clock::now();
    const experiments::CampusScaleResult r = sharded
                                                 ? experiments::run_campus_scale_sharded(config)
                                                 : experiments::run_campus_scale(config);
    wall_s.push_back(seconds_since(t0));
    const std::string digest = digest_of(r);
    const bool ok = r.new_admitted + r.new_blocked == config.portables &&
                    r.departures == config.portables &&
                    (report.digest.empty() || digest == report.digest);
    report.check(ok, "hour failed its checks (new_admitted + new_blocked == departures == "
                     "portables, same outcome as the previous hour): " + digest);
    report.digest = digest;
    ++report.attempted;
    if (!ok) ++report.failed;
    last = r;
  });

  const double wall = median(wall_s);
  const double setup = median(setup_s);
  const double rss = median(peak_mib);
  report.end_to_end = {
      {"wall_s", wall, "s"},
      {"setup_s", setup, "s"},
      {"peak_rss_mib", rss, "MiB"},
  };
  report.detail = {
      {"wall_s", wall, "s"},
      {"setup_s", setup, "s"},
      {"peak_rss_mib", rss, "MiB"},
  };

  if (kTraced) {
    const double self_s = add_entry_layers(report);
    report.layers.push_back(
        {"experiments.state_bytes_per_portable", last.bytes_per_portable, "bytes"});
    report.layers.push_back({"experiments.unattributed_s", wall_s.back() - self_s, "s"});
    const double hits = double(counter(registry, "resv.reservation.hit"));
    const double misses = double(counter(registry, "resv.reservation.miss"));
    report.layers.push_back({"reservation.hit_ratio", ratio(hits, hits + misses), "ratio"});
    report.layers.push_back(
        {"reservation.handoff_drop_ratio",
         ratio(double(last.handoff_dropped), double(last.handoff_admitted + last.handoff_dropped)),
         "ratio"});
    report.layers.push_back(
        {"reservation.new_block_ratio",
         ratio(double(last.new_blocked), double(last.new_admitted + last.new_blocked)), "ratio"});
    if (sharded) add_shard_layers(report, last);
  }
  return report;
}

}  // namespace perfbench

// Shared plumbing of the benchmark binaries: arguments, the per-workload
// report, and small statistics helpers. Each workload lives in its own file
// (grid.cc, fig6.cc, serve.cc) and fills one Report.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// True in the binary linked with the --wrap wrappers (imrm_perfbench_traced).
#ifdef PERFBENCH_TRACED
inline constexpr bool kTraced = true;
#else
inline constexpr bool kTraced = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Upper bound on measured jobs (0 = as many as fit in `seconds`).
  std::size_t max_jobs = 0;
  /// serve_open_loop only: also climb the rate ladder for max_rps_under_slo.
  bool ladder = false;
  // Grid size knobs; the defaults are the benchmark's 1000 x 100k campus.
  // The self-tests shrink them.
  std::size_t cells = 1000;
  std::size_t portables = 100000;
  std::size_t shards = 4;
  double sim_seconds = 3600.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed correctness check.
  std::vector<std::string> problems;
  /// Simulated outcome of the run (counts and hashes). The traced binary must
  /// print the same digest as the clean one; empty for wall-clock workloads.
  std::string digest;
  /// The metrics BENCHMARK.json lists as end_to_end, same names everywhere.
  std::vector<Metric> end_to_end;
  /// The workload's own end-to-end figures under their descriptive names
  /// (lat_p999_us.r30k, config_p75_s, ...), printed for people.
  std::vector<Metric> detail;
  /// Per-layer figures; only the traced binary fills the wrapped ones.
  std::vector<Metric> layers;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = std::size_t(q * double(v.size()) + 0.999999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Peak resident set (VmHWM) since the last reset_peak_rss(), MiB.
[[nodiscard]] double peak_rss_mib();
/// Returns freed heap to the system and lowers the peak-RSS mark to the
/// current resident set (Linux clear_refs), so each job's peak can be read
/// on its own.
void reset_peak_rss();

/// Appends <entry>.calls and <entry>.self_s for every wrapped entry point,
/// and returns the summed self seconds (for the unattributed residual).
double add_entry_layers(Report& report);

/// Runs `job` at least once, then again while one more job of the mean
/// length so far still fits in `seconds` (and fewer than max_jobs ran, when
/// set), so a run measures about `seconds` of work in whole jobs. Returns
/// each job's peak resident set, MiB.
template <typename Job>
std::vector<double> repeat_for(double seconds, std::size_t max_jobs, Job&& job) {
  const auto t0 = Clock::now();
  std::vector<double> peak_mib;
  do {
    reset_peak_rss();
    job();
    peak_mib.push_back(peak_rss_mib());
  } while (seconds_since(t0) * double(peak_mib.size() + 1) / double(peak_mib.size()) <=
               seconds &&
           (max_jobs == 0 || peak_mib.size() < max_jobs));
  return peak_mib;
}

Report run_grid(const Args& args, bool sharded);
Report run_fig6(const Args& args);
Report run_serve(const Args& args);

}  // namespace perfbench

// imrm_perfbench: runs one benchmark workload and prints its report as one
// JSON line on stdout. perfbench/run.py builds this program (and its traced
// twin, imrm_perfbench_traced) and turns the reports into the benchmark's
// result line; see perfbench/README.md.
//
//   imrm_perfbench --workload grid_campus|grid_campus_sharded|fig6_sweep|
//                             serve_open_loop
//                  --seed N --seconds S [--max-jobs J] [--ladder 0|1]
//                  [--cells C --portables P --shards K --sim-seconds T]
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "probe.h"

namespace perfbench {

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void reset_peak_rss() {
  malloc_trim(0);  // hand freed heap back first, so earlier jobs do not count
  std::ofstream("/proc/self/clear_refs") << "5";
}

double add_entry_layers(Report& report) {
  const EntryTotals t = totals();
  double self_s = 0.0;
  for (std::size_t i = 0; i < kEntryCount; ++i) {
    const std::string name(entry_name(Entry(i)));
    const double s = double(t.self_ns[i]) * 1e-9;
    report.layers.push_back({name + ".calls", double(t.calls[i]), "count"});
    report.layers.push_back({name + ".self_s", s, "s"});
    self_s += s;
  }
  return self_s;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";  // parses back as infinity
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": " +
           json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

void print(const Args& args, const Report& r) {
  std::string problems = "[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    if (i) problems += ", ";
    problems += json_string(r.problems[i]);
  }
  problems += "]";
  std::ostringstream os;
  os << "{\"workload\": " << json_string(args.workload)
     << ", \"seed\": " << args.seed << ", \"traced\": " << (kTraced ? "true" : "false")
     << ", \"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"problems\": " << problems << ", \"digest\": " << json_string(r.digest)
     << ", \"end_to_end\": " << json_metrics(r.end_to_end)
     << ", \"detail\": " << json_metrics(r.detail)
     << ", \"layers\": " << json_metrics(r.layers) << ", \"build\": {\"build_type\": "
     << json_string(PERFBENCH_BUILD_TYPE) << ", \"compiler\": " << json_string(__VERSION__)
     << ", \"imrm_tracing\": " << IMRM_TRACING << ", \"imrm_profiling\": " << IMRM_PROFILING
     << ", \"nproc\": " << std::thread::hardware_concurrency() << "}}";
  std::cout << os.str() << std::endl;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--max-jobs") {
      a.max_jobs = std::stoul(v);
    } else if (flag == "--ladder") {
      a.ladder = v == "1";
    } else if (flag == "--cells") {
      a.cells = std::stoul(v);
    } else if (flag == "--portables") {
      a.portables = std::stoul(v);
    } else if (flag == "--shards") {
      a.shards = std::stoul(v);
    } else if (flag == "--sim-seconds") {
      a.sim_seconds = std::stod(v);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse(argc, argv);
    Report report;
    if (args.workload == "grid_campus") {
      report = run_grid(args, false);
    } else if (args.workload == "grid_campus_sharded") {
      report = run_grid(args, true);
    } else if (args.workload == "fig6_sweep") {
      report = run_fig6(args);
    } else if (args.workload == "serve_open_loop") {
      report = run_serve(args);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    print(args, report);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "imrm_perfbench: " << e.what() << "\n";
    return 2;
  }
}

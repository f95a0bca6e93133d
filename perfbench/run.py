#!/usr/bin/env python3
"""Runs one workload of the imrm benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--out result.json]

Run it from the root of the repository. The first run configures and builds
perfbench/ (the imrm libraries plus two benchmark programs) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only let
the build tool check that the programs are up to date.

--trace 0 runs the clean program and reports every end_to_end metric of
BENCHMARK.json. --trace 1 runs the clean program for one job, then the
traced program (linked with --wrap on the entry points listed in
src/wrap.cc) for one job, checks that both simulated the same outcome, and
reports every per_layer metric. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it describe the build, the workload's figures under their
descriptive names, and the correctness verdict. --out also writes the full
record (provenance included) for perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid_campus", "grid_campus_sharded", "fig6_sweep", "serve_open_loop")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds both programs; returns their paths."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no imrm sources at {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "imrm_perfbench", out / "imrm_perfbench_traced"


def run_program(program, args):
    cmd = [str(program)] + [str(a) for a in args]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} exited with {done.returncode}")
    return json.loads(lines[-1])


def source_digest():
    """sha256 over the sources the programs are built from."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and p.suffix in (".cc", ".h", ".txt", ".py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def pick(spec_metrics, values, where):
    """Every metric the spec lists, with the spec's unit; absent values are 0
    (a layer the workload never reaches)."""
    out = {}
    for m in spec_metrics:
        v = values.get(m["name"])
        if v is not None and v["unit"] != m["unit"]:
            fail(f"{where}: {m['name']} in {v['unit']}, BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": v["value"] if v is not None else 0, "unit": m["unit"]}
    return out


def describe(report, label):
    print(f"{label}: {report['workload']} seed {report['seed']}")
    for name, m in report["detail"].items():
        print(f"  {name:<24} {m['value']:>16.6g} {m['unit']}")
    verdict = "correct" if report["correct"] else "INCORRECT"
    print(f"  verdict: {verdict} (attempted {report['attempted']}, failed {report['failed']})")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    if report["digest"]:
        print(f"  outcome: {report['digest'][:160]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record here")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    clean, traced = build()

    common = ["--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds]
    if args.trace == 0:
        report = run_program(clean, common)
        describe(report, "clean")
        result = {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": pick(spec["end_to_end"], report["end_to_end"], args.workload),
        }
        reports = [report]
    else:
        ladder = ["--ladder", "1"] if args.workload == "serve_open_loop" else []
        base = run_program(clean, common + ["--max-jobs", 1] + ladder)
        report = run_program(traced, common + ["--max-jobs", 1])
        describe(base, "clean")
        describe(report, "traced")
        same = base["digest"] == report["digest"]
        if not same:
            print("  problem: the traced run simulated a different outcome than the clean run")
        layers = dict(report["layers"])
        layers["bench.trace_overhead_s"] = {
            "value": report["end_to_end"]["wall_s"]["value"] - base["end_to_end"]["wall_s"]["value"],
            "unit": "s"}
        if "max_rps_under_slo" in base["detail"]:
            layers["serve.max_rps_under_slo"] = base["detail"]["max_rps_under_slo"]
        result = {
            "correct": base["correct"] and report["correct"] and same,
            "attempted": base["attempted"] + report["attempted"],
            "failed": base["failed"] + report["failed"],
            "metrics": pick(spec["per_layer"], layers, args.workload),
        }
        reports = [base, report]

    provenance = {
        "nproc": reports[0]["build"]["nproc"],
        "build_type": reports[0]["build"]["build_type"],
        "compiler": reports[0]["build"]["compiler"],
        "imrm_tracing": reports[0]["build"]["imrm_tracing"],
        "imrm_profiling": reports[0]["build"]["imrm_profiling"],
        "commit": commit(),
        "source_digest": source_digest(),
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "provenance": provenance, "result": result,
                  "detail": {r["workload"] + (".traced" if r["traced"] else ""): r["detail"]
                             for r in reports}}
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

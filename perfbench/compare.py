#!/usr/bin/env python3
"""Compares two benchmark records written by `perfbench/run.py --out`.

    python3 perfbench/compare.py before.json after.json

Refuses (exit 1) unless both records measured the same workload and trace
mode on a like build and host: same nproc, build type, compiler and
IMRM_TRACING / IMRM_PROFILING switches. Commit and source digest are
expected to differ and are only printed.
"""

import json
import sys

LIKE = ("nproc", "build_type", "compiler", "imrm_tracing", "imrm_profiling")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = (json.load(open(path)) for path in sys.argv[1:])
    for key in ("workload", "trace"):
        if a[key] != b[key]:
            sys.exit(f"refusing: {key} differs ({a[key]} vs {b[key]})")
    for key in LIKE:
        if a["provenance"][key] != b["provenance"][key]:
            sys.exit(f"refusing: {key} differs ({a['provenance'][key]} vs {b['provenance'][key]})")
    print(f"{a['workload']}: {a['provenance']['commit'][:12]} -> {b['provenance']['commit'][:12]}"
          f" (sources {a['provenance']['source_digest']} -> {b['provenance']['source_digest']})")
    for name, m in a["result"]["metrics"].items():
        before = m["value"]
        after = b["result"]["metrics"].get(name, {}).get("value")
        if after is None:
            continue
        change = f"{100.0 * (after - before) / before:+.1f}%" if before else "n/a"
        print(f"  {name:<40} {before:>14.6g} {after:>14.6g} {m['unit']:<6} {change}")


if __name__ == "__main__":
    main()

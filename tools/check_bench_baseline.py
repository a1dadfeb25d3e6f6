#!/usr/bin/env python3
"""Compare a bench --json run against a section of BENCH_baseline.json.

The modeled ZC702 numbers are deterministic and host-independent, so any
drift between a fresh run and the checked-in baseline is a real behaviour
change that must be reviewed (and the baseline regenerated deliberately).

Usage:
  tools/check_bench_baseline.py BASELINE.json SECTION FRESH.json
  tools/check_bench_baseline.py --update BASELINE.json SECTION FRESH.json

Compares the baseline's `SECTION` object against the fresh run. Numeric
leaves must agree to 1e-9 relative tolerance; strings and booleans exactly.
Host-dependent fields (host config, wall-clock timings, google-benchmark
iteration counts/rates) are skipped by path substring. Exit code 1 on any
drift, with a per-path report.

With --update, the fresh run replaces the baseline's SECTION in place (the
deliberate-regeneration step the drift report points to). The check still
runs first and its report is printed, so an update shows exactly which
modeled fields it is rewriting — a clean update after a host-only change
reports zero drift.
"""
import json
import math
import sys

# Paths containing any of these substrings are host- or harness-dependent,
# not modeled output. "host"/"wall"/"threads" cover the host config blocks
# and the wall-clock section (bench_pipeline's host_wall_clock);
# "iterations"/"ns_per_op"/"items_per_second" are google-benchmark
# wall-clock measurements in the bench_kernels section (its modeled content
# is the set of benchmark names, which IS checked — a kernel dropping out of
# the dispatch sweep fails the check).
SKIP = (
    "host",
    "wall",
    "threads",
    "simd_isa",
    "iterations",
    "ns_per_op",
    "items_per_second",
)

REL_TOL = 1e-9


def leaves(value, path=""):
    if isinstance(value, dict):
        for key, child in value.items():
            yield from leaves(child, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from leaves(child, f"{path}[{i}]")
    else:
        yield path, value


def skipped(path):
    return any(token in path for token in SKIP)


def compare(section_value, fresh):
    base_leaves = {p: v for p, v in leaves(section_value) if not skipped(p)}
    fresh_leaves = {p: v for p, v in leaves(fresh) if not skipped(p)}

    drifts = []
    for path, expect in sorted(base_leaves.items()):
        if path not in fresh_leaves:
            drifts.append(f"missing in fresh run: {path} (baseline {expect!r})")
            continue
        got = fresh_leaves[path]
        if isinstance(expect, bool) or isinstance(got, bool):
            ok = expect == got
        elif isinstance(expect, (int, float)) and isinstance(got, (int, float)):
            ok = math.isclose(expect, got, rel_tol=REL_TOL, abs_tol=0.0)
        else:
            ok = expect == got
        if not ok:
            drifts.append(f"{path}: baseline {expect!r} != fresh {got!r}")
    for path in sorted(set(fresh_leaves) - set(base_leaves)):
        drifts.append(f"new field not in baseline: {path}")
    return drifts, len(base_leaves)


def main(argv):
    argv = argv[1:]
    update = False
    if argv and argv[0] == "--update":
        update = True
        argv = argv[1:]
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    baseline_path, section, fresh_path = argv
    with open(baseline_path) as f:
        baseline = json.load(f)
    if section not in baseline and not update:
        sys.stderr.write(f"section '{section}' not in {baseline_path}\n")
        return 2
    with open(fresh_path) as f:
        fresh = json.load(f)

    drifts, checked = compare(baseline.get(section, {}), fresh)

    if update:
        baseline[section] = fresh
        with open(baseline_path, "w") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
        print(f"updated {baseline_path}:{section} from {fresh_path}")
        if drifts:
            print(f"  {len(drifts)} modeled field(s) changed:")
            for d in drifts:
                print(f"    {d}")
        else:
            print(f"  no modeled drift ({checked} fields; host/wall fields refreshed)")
        return 0

    if drifts:
        sys.stderr.write(
            f"modeled output drifted from {baseline_path}:{section} "
            f"({len(drifts)} difference(s)):\n"
        )
        for d in drifts:
            sys.stderr.write(f"  {d}\n")
        sys.stderr.write(
            "if the change is intentional, regenerate the section with "
            f"tools/check_bench_baseline.py --update {baseline_path} {section} "
            "FRESH.json\n"
        )
        return 1
    print(
        f"{fresh_path} matches {baseline_path}:{section} "
        f"({checked} modeled fields)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

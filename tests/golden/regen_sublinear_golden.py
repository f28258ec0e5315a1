#!/usr/bin/env python3
"""Re-record the expected fields of a golden fixture under tests/golden/.

Usage: python3 tests/golden/regen_sublinear_golden.py <path/to/ppsle_run>
           [fixture.json]

The fixture defaults to sublinear_golden.json; count_engine_golden.json is
the other one. Every cell of the fixture is run once through
`ppsle_run --scenario` with its spec (any ppsle_run key: engine,
strategy, fault.* ...), and the cell's "expect" object is overwritten
with the record's deterministic fields: <metric>_mean/_ci95/_p99,
interactions_mean, failed (0 when the record omits it) and the count
engine's per-arm totals arm_<arm>_steps / arm_<arm>_interactions. Numbers
are written as ppsle_run prints them (%.17g), so they parse back to the
same doubles and the golden test (tests/sublinear_golden_test.cpp) can
compare bit for bit.

Re-baselining is a reviewed diff of the fixture: run this with a binary
built from the commit whose behaviour is the reference.
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
STATS = ("mean", "ci95", "p99")


def spec_args(spec):
    args = []
    for key, value in spec.items():
        if key == "params":
            args += [f"param.{k}={v}" for k, v in value.items()]
        else:
            args.append(f"{key}={value}")
    return args


def run_cell(binary, spec, workdir):
    cmd = [binary, "--scenario", *spec_args(spec), "threads=1",
           "--out=golden"]
    subprocess.run(cmd, cwd=workdir, check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(workdir, "BENCH_golden.json")) as f:
        (record,) = json.load(f)["records"]
    expect = {}
    for key, value in record.items():
        stat = key.rsplit("_", 1)[-1]
        if stat in STATS and not key.startswith("wall_seconds"):
            expect[key] = value
    expect.update({k: v for k, v in record.items() if k.startswith("arm_")})
    expect["interactions_mean"] = record["interactions_mean"]
    expect["failed"] = record.get("failed", 0)
    return expect


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    binary = os.path.abspath(sys.argv[1])
    fixture_path = os.path.join(
        HERE, sys.argv[2] if len(sys.argv) == 3 else "sublinear_golden.json")
    with open(fixture_path) as f:
        fixture = json.load(f)
    with tempfile.TemporaryDirectory() as workdir:
        for cell in fixture["cells"]:
            cell["expect"] = run_cell(binary, cell["spec"], workdir)
            print(" ".join(spec_args(cell["spec"])), "->", cell["expect"])
    with open(fixture_path, "w") as f:
        json.dump(fixture, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()

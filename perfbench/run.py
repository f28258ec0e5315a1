#!/usr/bin/env python3
"""End-to-end scenario benchmark for ppsim.

Each workload is one ``ppsle_run --scenario`` cell (see WORKLOADS). An
untraced run (``--trace 0``) starts the cell as a child process again and
again for ``--seconds`` seconds, each child with a seed derived from
``--seed``, and reports what a user waits on: child wall time from exec to
exit, child CPU time, peak RSS, throughput, and the set-up time of the same
cell cut to a one-interaction horizon. Every child's output is checked.

A traced run (``--trace 1``) runs ``layer_driver``, which replays the same
cell through the layers' public functions inside timed spans, next to one
untraced child of the same seed, and reports per-layer metrics and the
tracing overhead.

Usage (from the repository root):
    python3 perfbench/run.py --workload silent-ranked-1k --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --calibrate silent-ranked-1k

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. perfbench/README.md describes the
workloads, the metrics and how to read the trace.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
# Set-up probes per untraced run (setup_s is their median): at least
# SETUP_MIN_PROBES, and more, up to SETUP_MAX_PROBES spread evenly over the
# run, while the probing has taken less than SETUP_PROBE_SECONDS.
SETUP_MIN_PROBES = 3
SETUP_MAX_PROBES = 25
SETUP_PROBE_SECONDS = 2.0
# Untraced children per run, at least (more while --seconds lasts).
MIN_CHILDREN = 3
# Width of the output band in standard errors of the checked mean.
BAND_Z = 6.0
# Seed and trial count of the reference runs behind reference.json.
CALIBRATE_SEED = 20261017
CALIBRATE_TRIALS = 128

# Extra reference means one restarted trial may add to its own time (a
# restart costs about one more stabilization, 0.95 in the measured case).
RESTART_COST = 1.5

# name -> cell keys, the one-line reason, the key that cuts the cell to a
# one-interaction horizon for the set-up probe, the record field whose
# mean the output check holds to a committed band (None: the fixed-horizon
# cell, checked against its horizon), and how many restarted trials per
# child the band's upper edge allows.
WORKLOADS = {
    "silent-ranked-1k": {
        "cell": "protocol=optimal-silent init=uniform-random until=ranked "
                "n=1024 trials=8 threads=4",
        "probe": "max_interactions=1",
        "band": "parallel_time_mean",
        "restarts": 0,
        "why": "Table 1 row 2, Theta(n) stabilization: the count engine and "
               "rank tracking do the work, set-up is ~0.2%",
    },
    "sublinear-ranked-512": {
        "cell": "protocol=sublinear-h1 init=uniform-random until=ranked "
                "n=512 trials=8 threads=4",
        "probe": "max_interactions=1",
        "band": "parallel_time_mean",
        # A rare trial (none in 400 single-trial runs, seeds 1-400) goes
        # through one more reset and stabilizes again: ~2x the time.
        "restarts": 2,
        "why": "sublinear-time non-silent protocol on the agent array; "
               "bypasses every count engine, so count-store changes predict "
               "no change here",
    },
    "ring-ssle-2k": {
        "cell": "protocol=ring-ssle topology=ring init=uniform-random "
                "until=ptime ptime=20000 n=2048 trials=64 threads=4",
        "probe": "ptime=%r" % (1.5 / 2048),
        "band": None,
        "restarts": 0,
        "why": "the only workload on the run-length-compressed ring engine: "
               "2.6e9 interactions in ~3e7 skip steps over 64 trials",
    },
}

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "rss_peak_mb": "MB",
    "interactions_per_s": "1/s",
}

LAYER_UNITS = {
    "init.materialize_s": "s",
    "init.occupied_states": "count",
    "init.dense_bytes_computed": "bytes",
    "engine_build.s": "s",
    "scenarios.probe_s": "s",
    "scenarios.trial_max_over_mean": "ratio",
    "scenarios.fanout_idle_s": "s",
    "engine.run_s": "s",
    "engine.ns_per_interaction": "ns",
    "engine.ns_per_step": "ns",
    "engine.steps": "count",
    "batch.steps.geometric_skip": "count",
    "batch.steps.multinomial": "count",
    "batch.multinomial_batches": "count",
    "batch.effective_frac": "ratio",
    "ring.steps": "count",
    "ring.interactions_per_step": "ratio",
    "convergence.check_s": "s",
    "convergence.check_frac": "ratio",
    "report.write_s": "s",
    "report.bytes": "bytes",
    "process.outside_s": "s",
    "kernel.rng_below_ns": "ns",
    "kernel.binomial_ns": "ns",
    "kernel.hypergeometric_ns": "ns",
    "kernel.fenwick_find_ns": "ns",
    "kernel.segmented_pool_draw_ns": "ns",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

KERNELS = ("rng_below", "binomial", "hypergeometric", "fenwick_find",
           "segmented_pool_draw")


def log(message):
    print(message, flush=True)


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr, flush=True)
    sys.exit(code)


def cell_keys(cell):
    return dict(kv.split("=", 1) for kv in cell.split())


def child_seed(seed, k):
    """Seed of the k-th child of a run: a pure function of (--seed, k)."""
    digest = hashlib.sha256(("%d:%d" % (seed, k)).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# --- build --------------------------------------------------------------


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def ensure_built():
    """Configures and builds ppsle_run and layer_driver from ../src."""
    for needed in ("src/analysis/scenarios.h", "tools/ppsle_run.cpp"):
        if not (ROOT / needed).is_file():
            fail("library source %s is missing; run from a full checkout"
                 % needed)
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    build = build_root() / "perfbench-cmake"
    build.mkdir(parents=True, exist_ok=True)
    log_path = build_root() / "perfbench-build.log"
    steps = []
    if not (build / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "-j", "2"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (log: %s)" % log_path, 1)
    return build


# --- fingerprint ----------------------------------------------------------


def cache_value(build, key):
    try:
        for line in (build / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def source_digest():
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.h"))
    files += [ROOT / "tools" / "ppsle_run.cpp"]
    files += sorted(p for p in BENCH_DIR.rglob("*") if p.is_file()
                    and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(build, workload, seed):
    cpu = "unknown-cpu"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache_value(build, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"],
                                     capture_output=True, text=True,
                                     timeout=30).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.TimeoutExpired):
            pass
    git_sha = "none"
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            git_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    build_type = cache_value(build, "CMAKE_BUILD_TYPE")
    flags = " ".join(f for f in (
        cache_value(build, "CMAKE_CXX_FLAGS"),
        cache_value(build, "CMAKE_CXX_FLAGS_" + build_type.upper()),
        "-std=c++20 -Wall -Wextra") if f)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "compiler": version or compiler,
        "build_type": build_type,
        "flags": flags,
        "git_sha": git_sha or "none",
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
    }


# --- children -------------------------------------------------------------


# The child process running right now, so a SIGTERM can stop it too.
_running = None


def stop_running(signum, _frame):
    if _running is not None and _running.poll() is None:
        _running.kill()
        _running.wait()
    sys.exit(128 + signum)


class Child:
    """One finished child process: wall from exec to exit, rusage."""

    def __init__(self, argv, workdir):
        global _running
        workdir.mkdir(parents=True, exist_ok=True)
        stderr_path = workdir / "stderr.txt"
        with open(stderr_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=workdir,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _running = proc
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                _running = None
            self.wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.exit_code = proc.returncode
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stderr = stderr_path.read_text()[-2000:]


def read_record(workdir, name):
    try:
        with open(workdir / ("BENCH_%s.json" % name)) as f:
            records = json.load(f)["records"]
        return records[0] if len(records) == 1 else None
    except (OSError, ValueError, KeyError, IndexError):
        return None


def run_scenario(binary, keys, seed, workdir, name="child"):
    (workdir / ("BENCH_%s.json" % name)).unlink(missing_ok=True)
    argv = [str(binary), "--scenario"] + keys + ["seed=%d" % seed,
                                                 "--out=" + name]
    child = Child(argv, workdir)
    return child, read_record(workdir, name)


def label(record):
    """Resolved engine label (reported, never checked)."""
    parts = [record.get("backend", "?")]
    if record.get("strategy"):
        parts.append(record["strategy"])
    text = "/".join(parts)
    if record.get("engine_arm"):
        text += " (auto arm %s)" % record["engine_arm"]
    return text


def load_reference():
    try:
        with open(REFERENCE_FILE) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def check_record(workload, child, record, reference):
    """Returns the list of problems with one untraced child's output."""
    problems = []
    if child.exit_code != 0:
        return ["exit code %d: %s" % (child.exit_code, child.stderr.strip())]
    if record is None:
        return ["no BENCH record written"]
    want = cell_keys(WORKLOADS[workload]["cell"])
    for key in ("n", "trials"):
        if str(record.get(key)) != want[key]:
            problems.append("%s=%s, expected %s" % (key, record.get(key),
                                                    want[key]))
    for key in ("init", "until"):
        if record.get(key) != want[key]:
            problems.append("%s=%s, expected %s" % (key, record.get(key),
                                                    want[key]))
    if record.get("failed", 0) != 0:
        problems.append("%s trials hit the horizon" % record["failed"])
    if want["until"] == "ptime":
        # Fixed horizon: no trial overshoots the budget by more than its
        # last step. Some ring-ssle trials end early, at a configuration the
        # ring engine proves stuck (zero active weight), so the mean may
        # fall short of the horizon; half of it is the floor.
        budget = int(float(want["ptime"]) * int(want["n"]))
        low = budget // 2
        got = record.get("interactions_mean", -1)
        if not low <= got <= budget * 1.001:
            problems.append("interactions_mean %s outside [%d, %d]"
                            % (got, low, int(budget * 1.001)))
    field = WORKLOADS[workload]["band"]
    if field:
        # Statistical band around the committed reference mean: the law of
        # the result, not its bits, so a change of draw order still passes.
        ref = reference.get(workload)
        metric = record.get(field)
        if ref is None or ref.get("metric") != field:
            problems.append("no %s band in %s" % (field, REFERENCE_FILE.name))
        elif metric is None:
            problems.append("record has no " + field)
        else:
            trials = int(want["trials"])
            half = BAND_Z * ref["trial_sd"] * (
                1.0 / trials + 1.0 / ref["reference_trials"]) ** 0.5
            # Restarts only lengthen a trial, so they widen the upper edge.
            low = ref["mean"] - half
            high = ref["mean"] + half + (WORKLOADS[workload]["restarts"]
                                         * RESTART_COST * ref["mean"] / trials)
            if not low <= metric <= high:
                problems.append("%s %.6g outside the band [%.6g, %.6g]"
                                % (field, metric, low, high))
    return problems


# --- untraced run ---------------------------------------------------------


def untraced(workload, seed, seconds, build, work):
    spec = WORKLOADS[workload]
    keys = spec["cell"].split()
    binary = build / "ppsle_run"
    reference = load_reference()
    trials = int(cell_keys(spec["cell"])["trials"])
    problems = []

    # Set-up: the same cell cut to one interaction. Trials of a probe stop
    # at the horizon, so its `failed` count is expected and ignored. The
    # probes are spread over the run, between children, so that a short
    # slow spell of the host moves only some of them.
    probe_keys = keys + [spec["probe"]]
    setup = []

    def probe(due):
        while len(setup) < min(due, SETUP_MAX_PROBES) and (
                len(setup) < SETUP_MIN_PROBES
                or sum(setup) < SETUP_PROBE_SECONDS):
            child, record = run_scenario(binary, probe_keys,
                                         child_seed(seed, 1000 + len(setup)),
                                         work)
            if child.exit_code != 0 or record is None:
                problems.append("setup probe: exit %d %s"
                                % (child.exit_code, child.stderr.strip()))
            setup.append(child.wall)

    samples = []
    failed = 0
    labels = set()
    start = time.perf_counter()
    probe(1)
    k = 0
    while True:
        child, record = run_scenario(binary, keys, child_seed(seed, k), work)
        k += 1
        # Every child is a timing sample; a failed check marks the run
        # incorrect and counts the child's trials as failed.
        sample = {"wall_s": child.wall, "cpu_s": child.cpu,
                  "rss_peak_mb": child.rss_mb}
        if record is not None and "interactions_mean" in record:
            sample["interactions_per_s"] = (record["interactions_mean"]
                                            * trials / child.wall)
            sample["record_wall_s"] = record.get("wall_seconds")
            labels.add(label(record))
        samples.append(sample)
        bad = check_record(workload, child, record, reference)
        if bad:
            problems += ["child %d: %s" % (k - 1, p) for p in bad]
            failed += trials
        # Children get --seconds of their own; probe time comes on top.
        elapsed = time.perf_counter() - start - sum(setup)
        probe(math.ceil(SETUP_MAX_PROBES * elapsed / seconds))
        typical = elapsed / k
        if k >= MIN_CHILDREN and elapsed + typical > seconds:
            break
        if k >= 4 * MIN_CHILDREN and failed == trials * k:
            break  # every child fails: stop early, the run is refused anyway
    probe(SETUP_MIN_PROBES)

    attempted = trials * k
    metrics = {"setup_s": statistics.median(setup)}
    for name in ("wall_s", "cpu_s", "rss_peak_mb", "interactions_per_s"):
        values = [s[name] for s in samples if name in s]
        metrics[name] = statistics.median(values) if values else 0.0
    log("workload %s: %d children x %d trials, engine %s"
        % (workload, k, trials, ", ".join(sorted(labels)) or "?"))
    for name, unit in E2E_UNITS.items():
        n_samples = len(setup) if name == "setup_s" else len(samples)
        log("  %-20s %14.6g %-4s median of %d" % (name, metrics[name], unit,
                                                 n_samples))
    log("  %-20s %14.6g %-4s %d of %d trials" % (
        "failed_frac", failed / attempted, "", failed, attempted))
    for p in problems[:20]:
        log("  check failed: " + p)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "units": E2E_UNITS,
        "samples": samples,
        "setup_samples": setup,
        "problems": problems,
    }


# --- traced run -----------------------------------------------------------


def self_times(spans):
    """Per span name: (total duration, self time = duration minus the part
    covered by its direct children)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    totals = {}
    for s in spans:
        dur = s["end_s"] - s["start_s"]
        # Children on other threads overlap each other; merge intervals so
        # self time never goes below zero.
        intervals = sorted((c["start_s"], c["end_s"])
                           for c in children.get(s["id"], []))
        covered, cur_start, cur_end = 0.0, None, None
        for a, b in intervals:
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        total, own = totals.get(s["name"], (0.0, 0.0))
        totals[s["name"]] = (total + dur, own + dur - covered)
    return totals


def layer_metrics(trace, driver_wall, child, record):
    spans = trace["spans"]
    counters = trace["counters"]
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end_s"] - s["start_s"]

    def under(s, ancestor):
        p = s["parent"]
        while p != -1:
            if by_id[p]["name"] == ancestor:
                return True
            p = by_id[p]["parent"]
        return False

    def total(name, ancestor=None):
        return sum(dur(s) for s in spans if s["name"] == name
                   and (ancestor is None or under(s, ancestor)))

    trial_durs = [dur(s) for s in spans if s["name"] == "trial"]
    fanout = total("scenarios.fanout")
    run_s = total("engine.run", "scenarios.fanout")
    interactions = counters.get("engine.interactions", 0.0)
    steps = counters.get("engine.steps", 0.0)
    stop = total("convergence.stop_run")
    check = stop - total("convergence.plain_run")
    extras = total("convergence") + total("kernel")
    overhead = driver_wall - extras - child.wall
    batch_total = (counters.get("batch.effective", 0.0)
                   + counters.get("batch.batched", 0.0))
    m = {
        "init.materialize_s": total("init.materialize", "scenarios.fanout"),
        "init.occupied_states": counters.get("init.occupied_states", 0.0),
        "init.dense_bytes_computed":
            counters.get("init.dense_bytes_computed", 0.0),
        "engine_build.s": total("engine_build", "scenarios.fanout"),
        "scenarios.probe_s": total("scenarios.resolve"),
        "scenarios.trial_max_over_mean":
            max(trial_durs) / statistics.mean(trial_durs),
        "scenarios.fanout_idle_s":
            counters.get("scenarios.threads_used", 1.0) * fanout
            - sum(trial_durs),
        "engine.run_s": run_s,
        "engine.ns_per_interaction": 1e9 * run_s / max(interactions, 1.0),
        "engine.ns_per_step": 1e9 * run_s / max(steps, 1.0),
        "engine.steps": steps,
        "batch.steps.geometric_skip":
            counters.get("batch.steps.geometric_skip", 0.0),
        "batch.steps.multinomial": counters.get("batch.steps.multinomial", 0.0),
        "batch.multinomial_batches":
            counters.get("batch.multinomial_batches", 0.0),
        "batch.effective_frac":
            counters.get("batch.effective", 0.0) / batch_total
            if batch_total else 0.0,
        "ring.steps": counters.get("ring.steps", 0.0),
        "ring.interactions_per_step":
            interactions / counters["ring.steps"]
            if counters.get("ring.steps") else 0.0,
        "convergence.check_s": check,
        "convergence.check_frac": check / stop if stop > 0 else 0.0,
        "report.write_s": total("report"),
        "report.bytes": counters.get("report.bytes", 0.0),
        "process.outside_s": child.wall - record["wall_seconds"],
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / child.wall,
    }
    for k in KERNELS:
        m["kernel.%s_ns" % k] = 1e9 * total("kernel." + k) / counters.get(
            "kernel.%s.ops" % k, 1.0)
    return m


def same_result(a, b):
    """True iff the replayed record reproduces the child's record."""
    keys = [k for k in b if k.endswith("_mean") and not
            k.startswith("wall_seconds")]
    keys += [k for k in b if k.startswith("arm_")]
    return all(a.get(k) == b.get(k) for k in keys) and \
        a.get("backend") == b.get("backend") and \
        a.get("strategy") == b.get("strategy")


def traced(workload, seed, seconds, build, work):
    spec = WORKLOADS[workload]
    keys = spec["cell"].split()
    reference = load_reference()
    trials = int(cell_keys(spec["cell"])["trials"])
    runs, problems, selfs, counters = [], [], {}, {}
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        s = child_seed(seed, k)
        k += 1
        child, record = run_scenario(build / "ppsle_run", keys, s, work)
        attempted += trials
        bad = check_record(workload, child, record, reference)
        spans_path = work / "spans.json"
        spans_path.unlink(missing_ok=True)
        (work / "BENCH_trace.json").unlink(missing_ok=True)
        driver = Child([str(build / "layer_driver")] + keys +
                       ["seed=%d" % s, "--spans=" + str(spans_path)], work)
        replay = read_record(work, "trace")
        if driver.exit_code != 0:
            bad.append("layer_driver exit %d: %s"
                       % (driver.exit_code, driver.stderr.strip()))
        elif record is not None and (replay is None or
                                     not same_result(replay, record)):
            bad.append("traced replay does not reproduce the child's record")
        if bad:
            problems += ["seed %d: %s" % (s, p) for p in bad]
            failed += trials
        else:
            with open(spans_path) as f:
                trace = json.load(f)
            runs.append(layer_metrics(trace, driver.wall, child, record))
            counters = trace["counters"]
            for name, (tot, own) in self_times(trace["spans"]).items():
                t0, o0 = selfs.get(name, (0.0, 0.0))
                selfs[name] = (t0 + tot, o0 + own)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > seconds or (failed and not runs):
            break
    # A traced run whose every replay failed still names every metric.
    metrics = {name: statistics.median(r[name] for r in runs) if runs else 0.0
               for name in LAYER_UNITS}
    log("workload %s traced: %d replay(s)" % (workload, len(runs)))
    log("  %-34s %12s %12s" % ("span", "total s", "self s"))
    for name, (tot, own) in sorted(selfs.items(), key=lambda kv: -kv[1][0]):
        log("  %-34s %12.6f %12.6f" % (name, tot / max(len(runs), 1),
                                       own / max(len(runs), 1)))
    for name, value in sorted(counters.items()):
        log("  counter %-26s %14.6g" % (name, value))
    for name, unit in LAYER_UNITS.items():
        log("  %-34s %14.6g %s" % (name, metrics[name], unit))
    for p in problems[:20]:
        log("  check failed: " + p)
    return {
        "correct": not problems and len(runs) > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "units": LAYER_UNITS,
        "replays": runs,
        "problems": problems,
    }


# --- calibration ----------------------------------------------------------


def calibrate(workload, build):
    """Measures the reference band of a workload: the per-trial mean and
    standard deviation of its checked field over CALIBRATE_TRIALS trials,
    written to reference.json."""
    spec = WORKLOADS[workload]
    field = spec["band"]
    if not field:
        fail("%s is checked against its horizon; it needs no reference"
             % workload)
    keys = cell_keys(spec["cell"])
    work = build_root() / "perfbench-work" / ("calibrate-" + workload)
    keys["trials"] = str(CALIBRATE_TRIALS)
    child, record = run_scenario(build / "ppsle_run",
                                 ["%s=%s" % kv for kv in keys.items()],
                                 CALIBRATE_SEED, work)
    if child.exit_code != 0 or record is None or record.get("failed"):
        fail("calibration run failed: " + child.stderr, 1)
    mean = record[field]
    sd = (record[field.replace("_mean", "_ci95")]
          * CALIBRATE_TRIALS ** 0.5 / 1.96)
    reference = load_reference()
    reference[workload] = {
        "metric": field,
        "mean": mean,
        "trial_sd": sd,
        "reference_trials": CALIBRATE_TRIALS,
        "seed": CALIBRATE_SEED,
    }
    with open(REFERENCE_FILE, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    log("%s: %s %.6g, trial sd %.6g over %d trials"
        % (workload, field, mean, sd, CALIBRATE_TRIALS))


# --- main -----------------------------------------------------------------


def run_one(workload, seed, seconds, trace, build):
    work = build_root() / "perfbench-work" / ("%s.seed%d.trace%d"
                                              % (workload, seed, trace))
    if work.exists():
        shutil.rmtree(work)
    if trace:
        result = traced(workload, seed, seconds, build, work)
    else:
        result = untraced(workload, seed, seconds, build, work)
    result["fingerprint"] = fingerprint(build, workload, seed)
    log("fingerprint: " + json.dumps(result["fingerprint"], sort_keys=True))
    results = build_root() / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / ("%s.seed%d.trace%d.json" % (workload, seed, trace))
    with open(out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    log("full result: %s" % out)
    return result


def summary_line(result):
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    })


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibrate", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    if not args.workload and not args.calibrate:
        parser.error("--workload or --calibrate is required")
    build = ensure_built()
    if args.calibrate:
        calibrate(args.calibrate, build)
        return 0
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_one(name, args.seed, args.seconds, args.trace, build)
               for name in names]
    if len(results) == 1:
        print(summary_line(results[0]), flush=True)
    else:
        for name, result in zip(names, results):
            log(name + ": " + summary_line(result))
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {"%s/%s" % (name, m): {"value": v,
                                              "unit": r["units"][m]}
                        for name, r in zip(names, results)
                        for m, v in r["metrics"].items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, stop_running)
    signal.signal(signal.SIGINT, stop_running)
    sys.exit(main())

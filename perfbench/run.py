#!/usr/bin/env python3
"""emcast benchmark: four experiments::run_multigroup workloads.

    python3 perfbench/run.py --workload paper_adaptive --seed 11 \
        --seconds 36 --trace 0

Run from the root of an emcast checkout.  The first run builds the library
(the repository's own CMake project, Release, target ``emcast`` only) and
the harness (perfbench/CMakeLists.txt) under ``.bench_build/``; later runs
reuse both builds.  The library must pass a Release guard (no Debug,
assertion or sanitizer build) before it is benchmarked.

One run starts fresh harness processes one after another for ``--seconds``
seconds.  Each process does the workload's setup calls and one timed
run_multigroup call (see harness.cpp).  Before them, one probe process runs
a small version of the workload on every engine for the cross-engine check.
Every metric is the median over the run's processes.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics of BENCHMARK.json).  The lines above it name every
metric with its unit, the fail ratio and the run's provenance.  The exit
code is 0 whenever a result is printed; a failed build or a library that
fails the Release guard exits 2 without a result.

perfbench/README.md gives the workloads, the metrics and why.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
REFERENCES = BENCH_DIR / "references.json"

# The timed runs use the reference point: traffic seed 11 and the
# library's default topology seed 42.  --seed N drives the probe, with
# traffic seed N and topology seed N + 31 (README.md, "Seeds").
TIMED_SEED, TIMED_TOPOLOGY_SEED = 11, 42
TOPOLOGY_SEED_OFFSET = TIMED_TOPOLOGY_SEED - TIMED_SEED
SHARDS = 4
HARNESS_DEADLINE_S = 90.0  # one harness process; passing it is a failure
RUN_DEADLINE_S = 170.0     # a built run must end within 180 s

# Each workload: the timed config, the reference its outputs must match,
# and the small config of its cross-engine probe.
SCALE_PROBE = {"hosts": 2000, "routers": 32, "duration": 1.0, "warmup": 0.25}
WORKLOADS = {
    "paper_adaptive": {
        "config": {"engine": "single", "hosts": 665, "routers": 0,
                   "duration": 30.0, "warmup": 2.0},
        "reference": "paper_adaptive",
        "probe": {"hosts": 665, "routers": 0, "duration": 4.0,
                  "warmup": 1.0},
    },
    "scale_sharded": {
        "config": {"engine": "sharded", "hosts": 100000, "routers": 512,
                   "duration": 1.0, "warmup": 0.25},
        "reference": "scale_1e5",
        "probe": SCALE_PROBE,
    },
    "scale_process": {
        "config": {"engine": "process", "hosts": 100000, "routers": 512,
                   "duration": 1.0, "warmup": 0.25},
        "reference": "scale_1e5",
        "probe": SCALE_PROBE,
    },
    "scale_build": {
        "config": {"engine": "sharded", "hosts": 300000, "routers": 1228,
                   "duration": 0.02, "warmup": 0.0},
        "reference": "scale_build",
        "probe": SCALE_PROBE,
    },
}

# --smoke: the same paths at tiny sizes, for perfbench/test_run.py.
SMOKE_CONFIG = {
    "paper_adaptive": {"hosts": 120, "routers": 0, "duration": 2.0,
                       "warmup": 0.5},
    "scale_sharded": {"hosts": 3000, "routers": 32, "duration": 0.2,
                      "warmup": 0.05},
    "scale_process": {"hosts": 3000, "routers": 32, "duration": 0.2,
                      "warmup": 0.05},
    "scale_build": {"hosts": 4000, "routers": 48, "duration": 0.02,
                    "warmup": 0.0},
}
SMOKE_PROBE = {"hosts": 120, "routers": 0, "duration": 1.0, "warmup": 0.25}

# Deterministic outputs compared against the references and across
# engines.  rounds and messages exist only on the windowed engines.
CHECK_KEYS = ("deliveries", "worst_case_delay", "delay_p50", "delay_p99",
              "mean_delay", "sample_digest", "mode_switches", "max_layers",
              "max_height_hops")
# The mean delay is a floating-point sum whose order follows the shard
# layout, so it is exact per engine and layout but not across them.
CROSS_ENGINE_KEYS = tuple(k for k in CHECK_KEYS if k != "mean_delay")
WINDOW_KEYS = ("rounds", "messages", "messages_spilled", "cross_edges",
               "total_edges", "lookahead")


class BenchError(Exception):
    """The benchmark cannot run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


# ------------------------------------------------------------------ build

def cmake_cache(build_dir):
    cache = {}
    path = Path(build_dir) / "CMakeCache.txt"
    if not path.is_file():
        raise BenchError(f"no CMakeCache.txt in {build_dir}")
    for line in path.read_text().splitlines():
        if line.startswith(("#", "//")) or "=" not in line or ":" not in line:
            continue
        key_type, value = line.split("=", 1)
        cache[key_type.split(":", 1)[0]] = value
    return cache


def library_flags(build_dir):
    """Build type and compile flags of the libemcast.a in `build_dir`."""
    cache = cmake_cache(build_dir)
    # The emcast project turns an empty CMAKE_BUILD_TYPE into Release.
    build_type = cache.get("CMAKE_BUILD_TYPE") or "Release"
    flags = " ".join(
        f for f in (cache.get("CMAKE_CXX_FLAGS", ""),
                    cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""))
        if f)
    return {"build_type": build_type, "cxx_flags": flags,
            "sanitize": cache.get("SANITIZE", ""),
            "compiler": cache.get("CMAKE_CXX_COMPILER", "")}


BANNED_SYMBOLS = ("__assert_fail", "__glibcxx_assert_fail", "__asan_",
                  "__tsan_", "__ubsan_", "__msan_")


def guard_library(lib, flags):
    """Refuse a Debug, assertion or sanitizer libemcast.a."""
    problems = []
    if flags["build_type"].lower() == "debug":
        problems.append("Debug build type")
    if flags["sanitize"] or "-fsanitize" in flags["cxx_flags"]:
        problems.append("sanitizer flags")
    if "-DNDEBUG" not in flags["cxx_flags"].split():
        problems.append("assertions enabled (no -DNDEBUG)")
    if "_GLIBCXX_ASSERTIONS" in flags["cxx_flags"] or \
            "_GLIBCXX_DEBUG" in flags["cxx_flags"]:
        problems.append("libstdc++ assertions")
    nm = shutil.which("nm")
    if nm is None:
        problems.append("nm not found, cannot inspect the library")
    else:
        out = subprocess.run([nm, "-u", str(lib)], capture_output=True,
                             text=True, check=False).stdout
        found = sorted({b for b in BANNED_SYMBOLS if b in out})
        if found:
            problems.append("references " + ", ".join(found))
    if problems:
        raise BenchError(f"refusing to benchmark {lib}: " + "; ".join(problems))


def run_build_step(cmd, log_file):
    with open(log_file, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              check=False)
    if done.returncode != 0:
        tail = Path(log_file).read_text().splitlines()[-20:]
        raise BenchError(f"build step failed: {' '.join(cmd)}\n" +
                         "\n".join(tail))


def build():
    """Build (or reuse) libemcast.a and the harness; return paths + flags."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} does not hold the emcast sources")
    BUILD_DIR.mkdir(exist_ok=True)
    log_file = BUILD_DIR / "perfbench-build.log"
    jobs = str(nproc())
    with open(BUILD_DIR / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        lib_dir = BUILD_DIR / "emcast"
        run_build_step(["cmake", "-S", str(ROOT), "-B", str(lib_dir),
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DEMCAST_BUILD_TESTS=OFF",
                        "-DEMCAST_BUILD_BENCH=OFF",
                        "-DEMCAST_BUILD_EXAMPLES=OFF"], log_file)
        run_build_step(["cmake", "--build", str(lib_dir), "--target",
                        "emcast", "-j", jobs], log_file)
        lib = lib_dir / "libemcast.a"
        if not lib.is_file():
            raise BenchError(f"no libemcast.a in {lib_dir}")
        flags = library_flags(lib_dir)
        guard_library(lib, flags)
        harness_dir = BUILD_DIR / "harness"
        run_build_step(["cmake", "-S", str(BENCH_DIR), "-B", str(harness_dir),
                        "-DCMAKE_BUILD_TYPE=Release",
                        f"-DEMCAST_ROOT={ROOT}",
                        f"-DEMCAST_LIBRARY={lib}"], log_file)
        run_build_step(["cmake", "--build", str(harness_dir), "-j", jobs],
                       log_file)
    return harness_dir / "perfbench_harness", flags


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ------------------------------------------------------------------ runs

def harness_args(config, seed, topology_seed, workers):
    return ["--engine", config.get("engine", "single"),
            "--hosts", str(config["hosts"]), "--routers", str(config["routers"]),
            "--duration", repr(config["duration"]),
            "--warmup", repr(config["warmup"]),
            "--seed", str(seed), "--topology-seed", str(topology_seed),
            "--shards", str(SHARDS), "--threads", str(workers),
            "--processes", str(workers)]


def kill_group(proc):
    """Kill a harness and any engine workers it forked, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def call_harness(harness, args, deadline_s):
    """Run one harness process; (parsed JSON, None) or (None, error).

    The harness runs in its own session, so passing the deadline, or this
    script being stopped, kills it together with its engine workers.
    """
    proc = subprocess.Popen([str(harness)] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline_s))
    except subprocess.TimeoutExpired:
        kill_group(proc)
        return None, f"passed its {deadline_s:.0f} s deadline"
    except BaseException:
        kill_group(proc)
        raise
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {stderr.strip()[-400:]}"
    try:
        return json.loads(stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "unparseable output"


def check_invariants(result):
    problems = []
    if result["deliveries"] <= 0:
        problems.append("no deliveries")
    if not (0 < result["delay_p50"] <= result["delay_p99"]
            <= result["worst_case_delay"]):
        problems.append("delay quantiles out of order: p50 "
                        f"{result['delay_p50']}, p99 {result['delay_p99']}, "
                        f"worst {result['worst_case_delay']}")
    return problems


def diff_keys(a, b, keys, what):
    return [f"{what}: {k} {a[k]!r} != {b[k]!r}" for k in keys if a[k] != b[k]]


def check_timed(out, windowed, reference):
    """Problems with one timed process's output."""
    r = out["result"]
    problems = check_invariants(r)
    problems += diff_keys(r, reference, CHECK_KEYS + WINDOW_KEYS, "reference")
    # The standalone overlay must be the one run_multigroup built.
    problems += diff_keys(out["overlay"], r, ("max_layers", "max_height_hops"),
                          "setup overlay")
    if windowed:
        # The standalone partition must be the one run_multigroup derived.
        part = out["partition"]
        problems += diff_keys(part, r, ("cross_edges", "total_edges",
                                        "lookahead"), "setup partition")
    return problems


def check_probe(out):
    problems = []
    for engine in ("single", "sharded", "process"):
        problems += [f"{engine}: {p}" for p in check_invariants(out[engine])]
    problems += diff_keys(out["sharded"], out["single"], CROSS_ENGINE_KEYS,
                          "sharded vs single")
    problems += diff_keys(out["process"], out["sharded"],
                          CHECK_KEYS + WINDOW_KEYS, "process vs sharded")
    return problems


def span_seconds(out, name):
    return sum(s["end"] - s["start"] for s in out["spans"] if s["name"] == name)


def end_to_end(timed):
    return {
        "wall_s": (median([o["wall_s"] for o in timed]), "s"),
        "setup_s": (median([sum(o["setup"].values()) for o in timed]), "s"),
        "deliveries_per_s": (median([o["result"]["deliveries"] / o["wall_s"]
                                     for o in timed]), "1/s"),
        "peak_rss_mb": (median([o["rss_self_kb"] / 1024 for o in timed]), "MB"),
    }


def per_layer(traced, untraced):
    """Per-layer metrics from the traced processes' spans and results."""
    r = traced[0]["result"]
    part = traced[0]["partition"]

    def med(fn):
        return median([fn(o) for o in traced])

    def kernel_s(o):
        return (span_seconds(o, "experiments.run")
                - span_seconds(o, "overlay.build")
                - o["setup"]["partition_s"])

    rounds = r["rounds"]
    return {
        "topology.build_s": (med(lambda o: span_seconds(o, "topology.build")), "s"),
        "topology.delay_provider_mb": (r["delay_provider_bytes"] / 2**20, "MB"),
        "overlay.build_s": (med(lambda o: span_seconds(o, "overlay.build")), "s"),
        "overlay.max_height_hops": (r["max_height_hops"], "count"),
        "overlay.max_layers": (r["max_layers"], "count"),
        "partition.build_s": (med(lambda o: span_seconds(o, "partition.build")), "s"),
        "partition.cross_edge_fraction": (
            part["cross_edges"] / part["total_edges"]
            if part["total_edges"] else 0.0, "ratio"),
        "partition.lookahead_ms": (part["lookahead"] * 1e3, "ms"),
        "experiments.run_s": (med(lambda o: span_seconds(o, "experiments.run")), "s"),
        "experiments.model_and_kernel_s": (med(kernel_s), "s"),
        "experiments.bytes_per_host": (r["bytes_per_host"], "B"),
        "core.mode_switches": (r["mode_switches"], "count"),
        "sim.deliveries": (r["deliveries"], "count"),
        "sim.rounds": (rounds, "count"),
        "sim.xshard_messages": (r["messages"], "count"),
        "sim.spill_ratio": (r["messages_spilled"] / r["messages"]
                            if r["messages"] else 0.0, "ratio"),
        "sim.deliveries_per_round": (r["deliveries"] / rounds if rounds else 0.0,
                                     "count"),
        # The Single engine runs its whole horizon as one window.
        "sim.round_ms": (med(kernel_s) * 1e3 / max(rounds, 1), "ms"),
        "process.worker_rss_mb": (med(lambda o: o["rss_children_kb"] / 1024), "MB"),
        "trace.overhead_s": (med(lambda o: o["wall_s"])
                             - median([o["wall_s"] for o in untraced]), "s"),
    }


def write_chrome_trace(path, workload, seed, traced):
    """Chrome trace-event JSON: one pid per harness process (run id)."""
    events = []
    for run_id, out in enumerate(traced):
        for s in out["spans"]:
            events.append({"name": s["name"], "ph": "X", "pid": run_id,
                           "tid": 0, "ts": s["start"] * 1e6,
                           "dur": (s["end"] - s["start"]) * 1e6,
                           "args": {"id": s["id"], "parent": s["parent"]}})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "otherData": {
        "workload": workload, "seed": seed}}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=TIMED_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so call_harness stops its harness.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    try:
        harness, flags = build()
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    started = time.monotonic()

    workload = WORKLOADS[args.workload]
    config = dict(workload["config"])
    probe_config = dict(workload["probe"])
    ref_key = workload["reference"]
    if args.smoke:
        config.update(SMOKE_CONFIG[args.workload])
        probe_config = dict(SMOKE_PROBE)
        ref_key = "smoke_" + ref_key
    workers = min(SHARDS, nproc())
    seed, topology_seed = args.seed, args.seed + TOPOLOGY_SEED_OFFSET
    references = json.loads(REFERENCES.read_text()) \
        if REFERENCES.is_file() else {}
    reference = references.get(ref_key)
    if reference is None:
        log(f"perfbench: no reference {ref_key} in {REFERENCES.name}")
        return 2

    print("provenance " + json.dumps({
        "workload": args.workload, "probe_seed": seed,
        "probe_topology_seed": topology_seed,
        "timed_seed": TIMED_SEED, "timed_topology_seed": TIMED_TOPOLOGY_SEED,
        "nproc": nproc(), "workers": workers, "shards": SHARDS,
        "library": flags, "git_commit": git_commit(),
        "smoke": args.smoke}, sort_keys=True), flush=True)

    attempted = failed = 0
    problems_seen = []

    def fail(what, problems):
        nonlocal failed
        failed += 1
        for p in problems[:5]:
            problems_seen.append(f"{what}: {p}")

    def remaining():
        return RUN_DEADLINE_S - (time.monotonic() - started)

    # Cross-engine probe on this --seed's inputs (untimed).
    attempted += 1
    probe, err = call_harness(
        harness, ["--mode", "probe"] +
        harness_args(probe_config, seed, topology_seed, workers),
        min(HARNESS_DEADLINE_S, remaining()))
    if probe is None:
        fail("probe", [err])
    else:
        problems = check_probe(probe)
        if problems:
            fail("probe", problems)

    # Timed processes: one setup + one run_multigroup call each, started
    # while the next one is expected to end within --seconds.  The traced
    # run alternates traced and untraced processes for the overhead.
    timed_args = harness_args(config, TIMED_SEED, TIMED_TOPOLOGY_SEED, workers)
    outputs = []  # (traced, output)
    measure_start = time.monotonic()
    longest = 0.0
    while True:
        n = len(outputs)
        elapsed = time.monotonic() - measure_start
        need = 2 if args.trace else 1
        if n >= need and elapsed + longest > args.seconds:
            break
        if remaining() < 5:
            break
        traced = args.trace == 1 and n % 2 == 0
        attempted += 1
        t0 = time.monotonic()
        out, err = call_harness(
            harness, timed_args + ["--trace", "1" if traced else "0"],
            min(HARNESS_DEADLINE_S, remaining()))
        longest = max(longest, time.monotonic() - t0)
        if out is None:
            fail(f"run {n}", [err])
            outputs.append((traced, None))
            continue
        problems = check_timed(out, config["engine"] != "single", reference)
        if problems:
            fail(f"run {n}", problems)
        outputs.append((traced, out))

    good = [(t, o) for t, o in outputs if o is not None]
    for p in problems_seen:
        log(f"perfbench: FAILED {p}")
    if not good:
        log("perfbench: no run completed")
        return 2

    e2e = end_to_end([o for _, o in good])
    if args.trace:
        traced = [o for t, o in good if t]
        untraced = [o for t, o in good if not t]
        if not traced or not untraced:
            log("perfbench: the traced run needs a traced and an untraced "
                "process")
            return 2
        metrics = per_layer(traced, untraced)
        trace_path = (BUILD_DIR / "perfbench" / "traces" /
                      f"{args.workload}-seed{seed}.json")
        write_chrome_trace(trace_path, args.workload, seed, traced)
        print(f"trace {trace_path.relative_to(ROOT)}")
    else:
        metrics = e2e

    for name, (value, unit) in list(e2e.items()) + \
            ([] if metrics is e2e else list(metrics.items())):
        print(f"metric {name} {value!r} {unit}")
    print(f"metric fail_ratio {failed / attempted!r} ratio "
          f"({failed} of {attempted} runs failed)")
    print(f"processes {len(outputs)} measured_s "
          f"{time.monotonic() - measure_start:.2f} hardware_concurrency "
          f"{good[0][1]['hardware_concurrency']}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repo benchmark: host cost of the simulator on four paper workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the simulator and the driver from
source into .bench_build/perfbench (CMake, RelWithDebInfo), generates the
workload config from the seed, runs the driver for S seconds on one thread
and prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mib);
--trace 1 reports the per-layer metrics of a traced run and writes its
spans to .bench_build/perfbench/traces/. Before scoring, the equivalence
test must show that the driver's phase-by-phase runs give the same virtual
results as xcc::run_experiment(). Every simulated run is checked:
it must finish without error or invariant violation, its virtual record
must repeat exactly across the runs of one process, and, where a digest is
committed for this workload and seed in expected_digests.json, match it.
The exit code is 0 only when every run passed.

    python3 perfbench/run.py --record-digests SEEDS

re-records expected_digests.json (SEEDS like "0-63,7777"); do this only
for a change that is meant to alter the simulation. See README.md.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
EQUIVALENCE = os.path.join(BUILD, "perfbench_equivalence_test")
DIGESTS = os.path.join(HERE, "expected_digests.json")

# Paper-faithful defaults everywhere: one RPC worker, full-scan tx_search,
# no query cache, no relayer coordination, invariant checker on.
WORKLOADS = {
    "relay-300rps": {
        "why": "Fig. 8 overload point: one relayer at 300 RPS, 200 ms RTT, "
               "50-block window; serialized RPC scans, pulls and proofs",
        "config": {"relayers": 1, "rps": 300, "rtt_ms": 200,
                   "measure_blocks": 50, "collect_steps": 0,
                   "max_sim_s": 4000},
    },
    "inclusion-3000rps": {
        "why": "Fig. 6 peak: 3,000 RPS for 20 blocks with no relayer; "
               "mempool, ante/bank, consensus, store and SHA-256 only",
        "config": {"relayers": 0, "rps": 3000, "measure_blocks": 20,
                   "collect_steps": 0, "max_sim_s": 8000},
    },
    "burst-5000": {
        "why": "Fig. 12: 5,000 transfers in one block drained to completion "
               "with the step log on; few huge RPC pages instead of many",
        "config": {"total_transfers": 5000, "spread_blocks": 1,
                   "measure_blocks": 5, "wait_for_drain": 1,
                   "drain_limit_s": 300, "max_sim_s": 5000},
    },
    "scale-1m-accounts": {
        "why": "Open loop, 10 tx/s x 100 msgs, Zipf(1.0) senders over 10^6 "
               "accounts, 10^5 transfers: state size dominates",
        "config": {"relayers": 0, "collect_steps": 0, "measure_blocks": 10,
                   "wait_for_workload": 1, "open_loop": 1,
                   "total_transfers": 100000, "msgs_per_tx": 100,
                   "accounts": 1000000, "zipf": 1.0, "tx_rate": 10,
                   "max_sim_s": 1000},
    },
}


def sanity(workload, record):
    """Workload-specific outcome checks that hold for every seed."""
    r = record["results"]
    requested = r["workload"]["requested"]
    if requested <= 0:
        return "no transfers requested"
    if workload == "relay-300rps" and r["window_breakdown"]["completed"] <= 0:
        return "no transfer completed in the window"
    if workload == "inclusion-3000rps" and r["inclusion_tfps"] <= 0:
        return "no transfer included"
    if workload == "burst-5000" and r["final_breakdown"]["completed"] != 5000:
        return "burst did not drain: %d/5000 completed" % (
            r["final_breakdown"]["completed"])
    if workload == "scale-1m-accounts" and r["workload"]["committed"] != requested:
        return "open loop committed %d of %d" % (
            r["workload"]["committed"], requested)
    return None


def testbed_seed(seed):
    """Same mapping as the figure benches' seed_for(rep)."""
    return (0xD5A7000 + seed * 7919) % (1 << 64)


def config_args(workload, seed):
    cfg = dict(WORKLOADS[workload]["config"], seed=testbed_seed(seed))
    return ["%s=%s" % (k, v) for k, v in sorted(cfg.items())]


def digest(record):
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def build():
    """Configures (once) and builds the driver; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found", file=sys.stderr)
        return False
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "perfbench_equivalence_test", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=700).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                print("perfbench: build failed: %s" % e, file=sys.stderr)
                return False
            if rc != 0:
                print("perfbench: build failed, see %s" % log_path,
                      file=sys.stderr)
                return False
    return True


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_equivalence():
    """Runs the equivalence test: the driver's phase-by-phase runs must give
    the same virtual results as xcc::run_experiment(). Returns None on a
    pass, else the problem. The test is deterministic for a given build, so
    a pass is remembered by the test binary's hash and rerun after every
    rebuild that changes it."""
    stamp = os.path.join(BUILD, "equivalence.pass")
    binary_hash = file_sha256(EQUIVALENCE)
    if os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read().strip() == binary_hash:
                return None
    try:
        proc = subprocess.run([EQUIVALENCE], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=120)
    except (OSError, subprocess.TimeoutExpired) as e:
        return "equivalence test did not run: %s" % e
    if proc.returncode != 0:
        return "phased driver differs from run_experiment:\n" + proc.stdout
    with open(stamp, "w") as f:
        f.write(binary_hash + "\n")
    return None


def run_driver(args, timeout):
    """Runs the driver; returns its JSON lines (raises on failure)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("driver exited %d: %s" % (proc.returncode,
                                                     proc.stderr.strip()))
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def check_reps(workload, seed, reps):
    """Counts failed runs; returns (failed, notes, digest status)."""
    expected = load_digests()["digests"].get(workload, {}).get(str(seed))
    failed = 0
    notes = []
    first = None
    for rep in reps:
        problem = None
        if not rep["ok"]:
            problem = "run failed: " + rep["error"]
        else:
            d = digest(rep["record"])
            problem = sanity(workload, rep["record"])
            if first is None:
                first = d
            if problem is None and d != first:
                problem = "virtual record differs between runs of one seed"
            if problem is None and expected is not None and d != expected:
                problem = "digest %s != committed %s" % (d[:16], expected[:16])
        if problem is not None:
            failed += 1
            notes.append(problem)
    status = ("matches committed digest" if expected is not None
              else "no committed digest for this seed; checked for "
                   "determinism, invariants and outcome")
    return failed, notes, status


def median(values):
    return statistics.median(values) if values else 0.0


def fastest(values):
    """Load from other processes only ever adds time, so the fastest sample
    is the steadiest estimate of the simulator's own cost."""
    return min(values) if values else 0.0


def segment_floor(reps):
    """wall_s as scored: the sum over the run's segments of each segment's
    fastest time across the repetitions. The simulation is deterministic, so
    segment k does the same work in every repetition, and a slow stretch of
    the host only has to miss one repetition of each segment. 0 for no
    repetitions; None if they were cut into different segments."""
    rows = [r["segments_s"] for r in reps]
    if any(len(row) != len(rows[0]) for row in rows):
        return None
    return sum(min(column) for column in zip(*rows))


def main_run(a):
    if a.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (have: %s)" % (
            a.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    if not build():
        return 1
    equivalence = check_equivalence()
    spans = os.path.join(BUILD, "traces", "%s-seed%d.json" % (a.workload,
                                                              a.seed))
    args = ["--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        args += ["--spans", spans]
    try:
        lines = run_driver(args + config_args(a.workload, a.seed),
                           timeout=a.seconds + 150)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    host = next(l for l in lines if l["kind"] == "host")
    end = next(l for l in lines if l["kind"] == "end")
    reps = [l for l in lines if l["kind"] == "rep"]
    scored = [r for r in reps if r["scored"] and r["ok"]]
    plain = [r for r in scored if not r["traced"]]
    traced = [r for r in scored if r["traced"]]
    setups = [l["setup_s"] for l in lines if l["kind"] == "setup" and l["ok"]]
    setups += [r["setup_s"] for r in plain]

    failed, notes, status = check_reps(a.workload, a.seed, reps)
    attempted = len(reps)
    if equivalence is not None:
        attempted += 1
        failed += 1
        notes.append(equivalence)
    wall = segment_floor(plain)
    traced_wall = segment_floor(traced)
    if wall is None or traced_wall is None:
        failed += 1
        notes.append("repetitions were cut into different segments")
        wall, traced_wall = wall or 0.0, traced_wall or 0.0
    correct = failed == 0 and bool(plain) and (bool(traced) or not a.trace)

    print("host: %s, %d hardware threads, 1 simulation thread" % (
        host["cpu_model"], host["hardware_threads"]))
    print("workload %s seed %d: %d runs (%d scored, %d traced), %s" % (
        a.workload, a.seed, attempted, len(scored), len(traced), status))
    for n in notes:
        print("FAILED: " + n)
    walls = [r["wall_s"] for r in plain]
    setup = fastest(setups)
    print("wall_s %.4f s (fastest run %.4f, median %.4f, %d runs), setup_s "
          "%.6f s (median %.6f, %d samples), peak_rss_mib %.1f MiB, "
          "failed_frac %.4f" % (
              wall, fastest(walls), median(walls), len(walls), setup,
              median(setups), len(setups), end["peak_rss_mib"],
              failed / attempted))

    if a.trace == 0:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mib": {"value": end["peak_rss_mib"], "unit": "MiB"},
        }
    else:
        metrics = {}
        units = layer_units()
        for name in units:
            values = [r["layers"][name] for r in traced if "layers" in r]
            metrics[name] = {"value": median(values), "unit": units[name]}
        metrics["telemetry.trace_overhead_frac"] = {
            "value": traced_wall / wall - 1 if wall > 0 else 0.0,
            "unit": "ratio"}
        print("traced wall_s %.4f s; spans written to %s" % (traced_wall,
                                                             spans))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_units():
    """Per-layer metric names (as the driver emits them) and units."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer"]
            if m["name"] != "telemetry.trace_overhead_frac"}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main_record(a):
    """Re-records expected digests: one untraced run per workload and seed."""
    if not build():
        return 1
    seeds = parse_seeds(a.record_digests)
    jobs = [(w, s) for w in WORKLOADS for s in seeds]

    def one(job):
        w, s = job
        lines = run_driver(["--once"] + config_args(w, s), timeout=600)
        rep = next(l for l in lines if l["kind"] == "rep")
        if not rep["ok"] or sanity(w, rep["record"]) is not None:
            raise RuntimeError("%s seed %d failed: %s %s" % (
                w, s, rep["error"], rep["ok"] and sanity(w, rep["record"])))
        return w, s, digest(rep["record"])

    data = load_digests() if os.path.isfile(DIGESTS) else {}
    table = data.setdefault("digests", {})
    with concurrent.futures.ThreadPoolExecutor(max_workers=a.jobs) as pool:
        for w, s, d in pool.map(one, jobs):
            table.setdefault(w, {})[str(s)] = d
            print("%s seed %d %s" % (w, s, d[:16]), flush=True)
    for w in table:
        table[w] = dict(sorted(table[w].items(), key=lambda kv: int(kv[0])))
    with open(DIGESTS, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", metavar="SEEDS")
    p.add_argument("--jobs", type=int, default=2,
                   help="parallel driver processes for --record-digests")
    a = p.parse_args()
    if a.record_digests:
        return main_record(a)
    if not a.workload:
        p.error("--workload is required")
    return main_run(a)


if __name__ == "__main__":
    sys.exit(main())

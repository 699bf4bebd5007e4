#!/usr/bin/env python3
"""The repository benchmark: builds the simulator from source, runs one
workload, checks its outputs and prints every metric.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics (tracing off); --trace 1 runs the
traced pass and prints the per-layer metrics. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Metric names,
workloads and the layer map are in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper_suite", "samie_replay_1t", "design_sweep_isolated")
# Set-up runs this many times per run; setup_s is their median.
SETUP_REPEATS = 5
# At least this many measured repetitions, even past --seconds.
MIN_REPS = 3
# sim_minst_per_s is the raw throughput scaled to a host on which one pass
# of the driver's clock probe takes this long (about 2.5 GHz); the probe
# is timed around every repetition.
NOMINAL_PROBE_MS = 10.0
# Accuracy seeds: the reproduction seed every figure bench uses, and a
# held-out seed that played no part in building the benchmark.
REPRODUCTION_SEED = 42
HELD_OUT_SEED = 7919
ACCURACY_INSTS = 250_000
PAPER_ERR = ("ipc_loss_pp", "lsq_energy_saved_pp", "dcache_energy_saved_pp",
             "dtlb_energy_saved_pp")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(targets=("perfbench_driver",)):
    """Configures (once) and builds; returns the build directory."""
    out = build_dir()
    # Compiler temporaries stay inside the build tree, like everything else.
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(out / "tmp")
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                    "--target", *targets], check=True, stdout=sys.stderr)
    return out


def cmake_cache(out):
    cache = {}
    for line in (out / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0] and not line.startswith("//"):
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    return cache


def host_stamp(out):
    """What a result is comparable under: CPU, CPU count, compiler and
    build settings. compare.py refuses sets whose stamps differ."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = cmake_cache(out)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[0]
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(f for f in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""))
                     if f)
    return {"cpu": cpu, "nproc": os.cpu_count(), "compiler": version,
            "build_type": build_type, "flags": flags}


def driver(out, *args):
    """Runs one driver step as a fresh process; returns its result and its
    wall seconds measured from outside."""
    start = time.perf_counter()
    proc = subprocess.run([str(out / "perfbench_driver"), *args], stdout=subprocess.PIPE,
                          text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench_driver {args[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def load_reference():
    path = BENCH_DIR / "reference.json"
    return json.loads(path.read_text()) if path.exists() else {}


def accuracy(out):
    """paper_err.* at the reproduction and held-out seeds. Deterministic
    for a given driver binary, so it is computed once per build."""
    digest = hashlib.sha256((out / "perfbench_driver").read_bytes()).hexdigest()[:16]
    cache = out / f"accuracy-{digest}.json"
    if not cache.exists():
        result, _ = driver(out, "accuracy", "--seeds",
                              f"{REPRODUCTION_SEED},{HELD_OUT_SEED}",
                              "--insts", str(ACCURACY_INSTS))
        cache.write_text(json.dumps(result))
    return json.loads(cache.read_text())


def metric(value, unit):
    return {"value": value, "unit": unit}


def describe(name, values, unit, higher_is_worse):
    t = stats.tail(values, higher_is_worse)
    tail = (f"p{t[0]:.0f} {t[1]:.6g}" if t else
            f"no tail percentile (needs > {stats.TAIL_SAMPLES_BEYOND} samples)")
    print(f"{name} = {stats.median(values):.6g} {unit}  (median; {tail}; n={len(values)})")


REFERENCE_LABEL = {None: "not compared", True: "match", False: "MISMATCH"}


def digest_check(reference, stamp, section, seed, digest):
    """None when no reference digest applies, else whether it matches."""
    if reference.get("host") != stamp:
        return None
    want = reference.get("digests", {}).get(section, {}).get(str(seed))
    return None if want is None else want == digest


def untraced(args, out, work, stamp):
    reference = load_reference()
    setup_walls = []
    for _ in range(SETUP_REPEATS):
        _, wall = driver(out, "setup", "--workload", args.workload,
                         "--seed", str(args.seed), "--dir", str(work))
        setup_walls.append(wall)

    def repetition():
        result, wall = driver(out, "run", "--workload", args.workload,
                              "--seed", str(args.seed), "--dir", str(work))
        result["outside_wall_s"] = wall
        return result

    # The warm-up repetition is gated for correctness but not timed.
    warmup = repetition()
    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < args.seconds:
        reps.append(repetition())

    gated = [warmup] + reps
    attempted = sum(r["attempted"] for r in gated)
    failed = sum(r["failed"] for r in gated)
    digests = {r["digest"] for r in gated}
    first = warmup["digest"]
    failed += sum(r["attempted"] for r in gated if r["digest"] != first)
    ref_ok = digest_check(reference, stamp, args.workload, args.seed, first)
    if ref_ok is False:
        failed += warmup["attempted"]

    acc = accuracy(out)
    for s in acc["seeds"]:
        ok = digest_check(reference, stamp, "accuracy", s["seed"], s["digest"])
        failed += s["failed"] + (s["attempted"] if ok is False else 0)
        attempted += s["attempted"]
        s["reference_digest"] = REFERENCE_LABEL[ok]
    repro = next(s for s in acc["seeds"] if s["seed"] == REPRODUCTION_SEED)

    raw_mips = [r["committed"] / r["wall_s"] / 1e6 for r in reps]
    probe = [r[k] for r in reps for k in ("probe_before_ms", "probe_after_ms")]
    clock_scale = stats.median(probe) / NOMINAL_PROBE_MS
    rss = [(r["rss_self_kb"] + r["rss_largest_child_kb"]) / 1024 for r in reps]
    metrics = {
        "sim_minst_per_s": metric(stats.median(raw_mips) * clock_scale, "Minst/s"),
        "setup_s": metric(stats.median(setup_walls), "s"),
        "peak_rss_mb": metric(stats.median(rss), "MiB"),
    }
    for key in PAPER_ERR:
        metrics["paper_err." + key] = metric(repro["paper_err"][key], "pp")

    print(f"workload {args.workload} seed {args.seed}: {len(reps)} timed repetitions "
          f"after 1 warm-up, {reps[0]['attempted']} jobs each")
    print("host " + json.dumps(stamp, sort_keys=True))
    print(f"sim_minst_per_s = {metrics['sim_minst_per_s']['value']:.6g} Minst/s  "
          f"(median raw throughput x median clock probe / {NOMINAL_PROBE_MS:g} ms)")
    describe("  raw throughput", raw_mips, "Minst/s", higher_is_worse=False)
    describe("  clock probe", probe, "ms", higher_is_worse=True)
    describe("setup_s", setup_walls, "s", higher_is_worse=True)
    describe("peak_rss_mb", rss, "MiB", higher_is_worse=True)
    print(f"failed_job_frac = {failed / attempted:.6g}  ({failed} of {attempted} jobs, "
          f"accuracy seeds included)")
    for s in acc["seeds"]:
        label = "reproduction" if s["seed"] == REPRODUCTION_SEED else "held-out"
        errs = "  ".join(f"paper_err.{k} = {s['paper_err'][k]:.4f} pp" for k in PAPER_ERR)
        print(f"{label} seed {s['seed']} ({acc['insts']} insts/program): {errs}; "
              f"failed {s['failed']} of {s['attempted']}; digest {s['digest']} "
              f"({s['reference_digest']})")
    print(f"digest {first} ({'identical' if len(digests) == 1 else 'DIFFERS'} across "
          f"repetitions; reference: "
          f"{REFERENCE_LABEL[ref_ok]})")

    record = {"workload": args.workload, "seed": args.seed, "trace": 0, "host": stamp,
              "metrics": metrics, "samples": {"raw_minst_per_s": raw_mips,
                                              "clock_probe_ms": probe,
                                              "setup_s": setup_walls,
                                              "peak_rss_mb": rss},
              "digest": first, "accuracy": acc, "warmup": warmup, "repetitions": reps}
    return record, failed, attempted


def traced(args, out, work, stamp):
    driver(out, "setup", "--workload", args.workload, "--seed", str(args.seed),
           "--dir", str(work))
    result, _ = driver(out, "trace", "--workload", args.workload, "--seed",
                       str(args.seed), "--dir", str(work), "--seconds", str(args.seconds))
    failed = result["failed"]
    if digest_check(load_reference(), stamp, args.workload, args.seed,
                    result["digest"]) is False:
        failed += result["attempted"]
    c = result["counters"]
    by_name = stats.self_time_by_name(result["spans"])

    def per_op(name):
        t, ops = by_name.get(name, (0, 0))
        return t / ops

    def core(lsq, key):
        return c[f"core.{lsq}.{key}"]

    def stepped(lsq):
        return core(lsq, "cycles") - core(lsq, "skipped")

    iso = [a - b for a, b in zip(result["isolated_walls"], result["in_process_walls"])]
    untraced_wall = stats.median([c["workload.untraced_wall_a_s"],
                                  c["workload.untraced_wall_b_s"]])
    walls = result["job_walls"]
    job_tail = stats.tail(walls)
    values = {
        "trace.generate_ns_per_op": (per_op("trace.generate"), "ns"),
        "trace.samt_v2_decode_ns_per_op": (per_op("trace.samt_v2_decode"), "ns"),
        "trace.samt_v2_encode_ns_per_op": (per_op("trace.samt_v2_encode"), "ns"),
        "trace.samt_v2_bytes_per_op": (
            c["trace.samt_v2_bytes"] / c["trace.samt_v2_ops"], "bytes"),
        "trace.jobs_per_trace": (c["sweep.jobs"] / c["trace.distinct"], "count"),
        "sim.run_ns_per_inst.samie": (per_op("sim.run.samie"), "ns"),
        "sim.run_ns_per_inst.conventional": (per_op("sim.run.conventional"), "ns"),
        "core.ns_per_stepped_cycle.samie": (
            by_name["sim.run.samie"][0] / stepped("samie"), "ns"),
        "core.ns_per_stepped_cycle.conventional": (
            by_name["sim.run.conventional"][0] / stepped("conventional"), "ns"),
        "core.stepped_cycles_per_kinst": (
            1e3 * stepped("samie") / core("samie", "committed"), "count"),
        "core.skip_ratio": (core("samie", "skipped") / core("samie", "cycles"), "ratio"),
        "core.fast_forwards_per_kinst": (
            1e3 * core("samie", "fast_forwards") / core("samie", "committed"),
            "count"),
    }
    for lsq, ops in (("samie", ("place", "plan_load", "commit", "squash")),
                     ("conventional", ("place", "plan_load", "commit"))):
        for op in ops:
            values[f"lsq.{lsq}.{op}_ns"] = (
                c[f"lsq.{lsq}.{op}_ns"] / c[f"lsq.{lsq}.{op}_n"], "ns")
    values["lsq.samie.buffered_ratio"] = (
        c["lsq.samie.buffered"] / c["lsq.samie.place_n"], "ratio")
    values.update({
        "mem.data_access_ns": (per_op("mem.data_access"), "ns"),
        "mem.l1d_miss_ratio": (
            c["mem.l1d_misses"] / (c["mem.l1d_hits"] + c["mem.l1d_misses"]), "ratio"),
        "mem.dtlb_miss_ratio": (
            c["mem.dtlb_misses"] / (c["mem.dtlb_hits"] + c["mem.dtlb_misses"]), "ratio"),
        "branch.predict_update_ns": (per_op("branch.predict_update"), "ns"),
        "branch.mispredict_ratio": (c["branch.mispredicts"] / c["branch.lookups"], "ratio"),
        "sweep.job_wall_p50_s": (stats.median(walls), "s"),
        "sweep.job_wall_tail_s": (job_tail[1] if job_tail else max(walls), "s"),
        "sweep.parallel_efficiency": (
            sum(walls) / (c["sweep.workers"] * c["sweep.wall_s"]), "ratio"),
        "sweep.isolate_overhead_ms_per_job": (1e3 * stats.median(iso), "ms"),
        "sweep.checkpoint_bytes_per_job": (
            c["sweep.checkpoint_bytes"] / c["sweep.probe_jobs"], "bytes"),
        "sweep.attempts_per_job": (c["sweep.attempts"] / c["sweep.jobs"], "count"),
        "sweep.trace_resident_high_water": (c["sweep.trace_resident_high_water"], "count"),
        "model.ipc.samie": (core("samie", "ipc_sum") / core("samie", "runs"), "ipc"),
        "model.ipc.conventional": (
            core("conventional", "ipc_sum") / core("conventional", "runs"), "ipc"),
        "model.deadlock_flushes_per_mcycle": (
            1e6 * core("samie", "deadlock_flushes") / core("samie", "cycles"),
            "count"),
        "model.forwarded_loads_per_kinst": (
            1e3 * core("samie", "forwarded_loads") / core("samie", "committed"),
            "count"),
        "workload.tracing_overhead_ratio": (
            c["workload.traced_wall_s"] / untraced_wall, "ratio"),
    })
    metrics = {k: metric(v, u) for k, (v, u) in values.items()}

    print(f"workload {args.workload} seed {args.seed}: traced run, "
          f"{len(result['spans'])} spans")
    print("host " + json.dumps(stamp, sort_keys=True))
    print("self time by span:")
    for name, (t, ops) in sorted(by_name.items(), key=lambda kv: -kv[1][0]):
        print(f"  {name:28s} {t / 1e9:9.4f} s  ops {ops}")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(f"tracing overhead: traced workload wall {c['workload.traced_wall_s']:.4f} s vs "
          f"untraced {untraced_wall:.4f} s")
    (work / "spans.json").write_text(json.dumps(result["spans"]))
    print(f"spans written to {work / 'spans.json'}")
    record = {"workload": args.workload, "seed": args.seed, "trace": 1, "host": stamp,
              "metrics": metrics, "counters": c}
    return record, failed, result["attempted"]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    stamp = host_stamp(out)
    work = out / "work" / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        record, failed, attempted = (traced if args.trace else untraced)(args, out, work, stamp)
    except (RuntimeError, KeyError, ValueError, ZeroDivisionError) as e:
        log(f"perfbench: run failed: {e}")
        return 2

    results = out / "results" / args.workload
    results.mkdir(parents=True, exist_ok=True)
    name = f"seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""irmcsim benchmark: build, run one workload, check outputs, report.

Run from the repository root:

    python3 perfbench/run.py --workload load_vct --seed 3 --seconds 28 --trace 0

Builds perfbench/ (the irmcsim library from src/ plus the benchmark
driver) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the driver for the workload, compares every sweep point's digest of
simulated output with perfbench/refs/<workload>.json, prints a table and,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Other modes: --selftest builds and runs the benchmark's own tests;
--record-refs rewrites the reference digests (only after a change that is
meant to alter simulated output). See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("load_vct", "load_flit", "single_sweep", "verify_sweep")
# --seed selects one of SEED_CLASSES committed input sets; class c uses
# topology/traffic seeds starting at 1 + 1000 * c, so no two classes
# share a topology.
SEED_CLASSES = 64
CHILD_TIMEOUT_S = 170
# Median time of the host probe's kernel (src/host_probe.cpp) on the
# host the benchmark was defined on, a shared 4-vCPU Xeon VM. Time
# metrics are reported in seconds of that host: each is scaled by
# REF_PROBE_S / the run's median probe time (see README.md).
REF_PROBE_S = 0.0033


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def metric_units(key):
    """{name: unit} of BENCHMARK.json's end_to_end or per_layer list."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


def input_seed(seed):
    return 1 + 1000 * (seed % SEED_CLASSES)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(targets):
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("irmcsim sources (src/) not found next to perfbench/")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", bdir, "-j4", "--target"] + targets)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return bdir


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def check_outputs(workload, seed, passes):
    """Failed ops per pass: points whose digest or op count differs from
    the committed reference, plus Systems that failed verification. A
    pass whose points are not exactly the reference's points fails
    whole."""
    refs_path = os.path.join(HERE, "refs", workload + ".json")
    refs = None
    if os.path.isfile(refs_path):
        with open(refs_path) as f:
            refs = json.load(f).get(str(seed % SEED_CLASSES))
    failed = []
    for p in passes:
        bad = 0
        names = [point[0] for point in p["points"]]
        if refs is not None and sorted(names) != sorted(refs):
            print("MISMATCH %s points: missing %s, unexpected %s"
                  % (workload, sorted(set(refs) - set(names)),
                     sorted(set(names) - set(refs))))
            failed.append(max(p["ops"], 1))
            continue
        for name, ops, point_failed, digest in p["points"]:
            ref = refs.get(name) if refs else None
            if ref is None or ref != [ops, digest]:
                bad += ops
                print("MISMATCH %s %s: got ops=%d digest=%s, reference %s"
                      % (workload, name, ops, digest, ref))
            else:
                bad += point_failed
        failed.append(bad)
    return refs is not None, failed


def run_driver(bdir, args, trace):
    spans = os.path.join(bdir, "spans-%s-%d.tsv" % (args.workload, args.seed))
    cmd = [os.path.join(bdir, "irmcbench"), "--workload", args.workload,
           "--seed", str(input_seed(args.seed)),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "a timeout"
    if proc.returncode != 0:
        return None, "exit code %d" % proc.returncode
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def host_context():
    with open("/proc/loadavg") as f:
        load = f.read().split()[:3]
    return "loadavg %s nproc %d" % (" ".join(load), os.cpu_count() or 0)


def report(args, bdir):
    before = host_context()
    out, rc = run_driver(bdir, args, args.trace)
    after = host_context()
    print("host before: %s | after: %s" % (before, after))
    if out is None:
        # The run aborted: every op it would have done counts as failed.
        print("FAIL irmcbench ended with %s" % rc)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    passes = out["passes"]
    have_refs, failed_per_pass = check_outputs(args.workload, args.seed,
                                               passes)
    attempted = sum(p["ops"] for p in passes)
    failed = sum(failed_per_pass)
    correct = have_refs and failed == 0 and attempted > 0
    if not have_refs:
        print("FAIL no reference digests for seed class %d"
              % (args.seed % SEED_CLASSES))

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    med = statistics.median

    def per_pass(ps):
        return {
            "ops_per_s": [p["ops"] / p["wall_s"] for p in ps],
            "cpu_us_per_op": [p["cpu_s"] / p["ops"] * 1e6 for p in ps],
            "setup_s": [p["setup_s"] for p in ps],
            "allocs_per_op": [p["allocs"] / p["ops"] for p in ps],
        }

    # Host speed of this run relative to the reference host; wall times
    # scale with the probe's wall time and CPU times with its CPU time.
    wall_scale = REF_PROBE_S / med([t for p in plain
                                    for t in p["probe_wall_s"]])
    cpu_scale = REF_PROBE_S / med([t for p in plain for t in p["probe_cpu_s"]])
    scale = {"ops_per_s": 1.0 / wall_scale, "cpu_us_per_op": cpu_scale,
             "setup_s": wall_scale, "allocs_per_op": 1.0}

    units = metric_units("end_to_end")
    series = per_pass(plain)
    print("workload %s seed %d (input seed %d): %d untraced + %d traced "
          "passes, %d ops/pass, cache hits/misses per pass %d/%d"
          % (args.workload, args.seed, input_seed(args.seed), len(plain),
             len(traced), passes[0]["ops"], passes[0]["cache_hits"],
             passes[0]["cache_misses"]))
    print("host probe: %d samples, median %.4g ms wall, %.4g ms CPU; time "
          "metrics scaled by %.4f (wall) and %.4f (CPU)"
          % (sum(len(p["probe_cpu_s"]) for p in plain),
             REF_PROBE_S / wall_scale * 1e3, REF_PROBE_S / cpu_scale * 1e3,
             wall_scale, cpu_scale))
    print("%-16s %-6s %14s %14s %8s" % ("metric", "unit", "value",
                                        "unscaled", "IQR/med"))
    e2e = {}
    for name, values in series.items():
        e2e[name] = med(values) * scale[name]
        print("%-16s %-6s %14.6g %14.6g %8.3f"
              % (name, units[name], e2e[name], med(values),
                 quartile_spread(values)))
    e2e["peak_rss_mb"] = out["peak_rss_kb"] / 1024.0
    print("%-16s %-6s %14.6g" % ("peak_rss_mb", units["peak_rss_mb"],
                                  e2e["peak_rss_mb"]))
    print("%-16s %-6s %14.6g" % ("fail_frac", "1",
                                 failed / attempted if attempted else 1.0))
    print("simulated (per pass): events %d, %s" % (
        passes[0]["events"],
        ", ".join("%s %.17g" % kv for kv in sorted(passes[0]["model"].items()))))

    if args.trace == 0:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in units.items()}
    else:
        layers = {}
        for key in traced[0]["layers"]:
            layers[key] = med([p["layers"][key] for p in traced])
        layers.update(passes[0]["model"])
        layers["topology.cache_hits"] = passes[0]["cache_hits"]
        layers["topology.cache_misses"] = passes[0]["cache_misses"]
        traced_cpu = med(per_pass(traced)["cpu_us_per_op"]) * cpu_scale
        layers["trace.overhead_cpu_us_per_op"] = (traced_cpu -
                                                  e2e["cpu_us_per_op"])
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in metric_units("per_layer").items()}
        for k in sorted(metrics):
            print("  %-36s %14.6g %s" % (k, metrics[k]["value"],
                                         metrics[k]["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def record_refs(bdir, workloads):
    for w in workloads:
        refs = {}
        for c in range(SEED_CLASSES):
            cmd = [os.path.join(bdir, "irmcbench"), "--workload", w, "--seed",
                   str(input_seed(c)), "--seconds", "1", "--passes", "1"]
            out = json.loads(subprocess.run(
                cmd, stdout=subprocess.PIPE, text=True, check=True,
                timeout=CHILD_TIMEOUT_S).stdout.strip().splitlines()[-1])
            refs[str(c)] = {name: [ops, digest] for name, ops, _, digest
                            in out["passes"][0]["points"]}
            print("recorded %s class %d" % (w, c), file=sys.stderr)
        with open(os.path.join(HERE, "refs", w + ".json"), "w") as f:
            json.dump(refs, f, indent=0, sort_keys=True)
            f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-refs", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 150:
        fail("--seed must be >= 0 and --seconds in 1..150")

    if args.selftest:
        bdir = build(["all"])
        return subprocess.run(["ctest", "--test-dir", bdir,
                               "--output-on-failure"]).returncode
    bdir = build(["irmcbench"])
    if args.record_refs:
        record_refs(bdir, [args.workload] if args.workload else WORKLOADS)
        return 0
    if args.workload is None:
        fail("--workload is required")
    return report(args, bdir)


if __name__ == "__main__":
    sys.exit(main())

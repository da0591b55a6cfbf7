#!/usr/bin/env python3
"""Serving-path benchmark for pinocchio_server.

One run (the contract BENCHMARK.json describes):

    python3 perfbench/run.py --workload vo-topk --seed 1 --seconds 18 --trace 0

builds the stock server and the benchmark driver from the checkout it is
started in (into $CARGO_TARGET_DIR, default .bench_build), runs one
workload and prints one JSON object as the last line of stdout. The human
report (per-class latencies with p99, host load, checks) goes to stderr.

Steadiness report (repeats runs with distinct seeds, then prints per
end-to-end metric the median, quartiles, IQR/median and (max-min)/median):

    python3 perfbench/run.py --steadiness --workload vo-topk --runs 10 \
        --first-seed 101 --out .bench_build/steady-a.json

With --sets 2 it measures two sets (seeds first-seed.. and first-seed+100..)
with their runs interleaved A, B, A, B, ..., so a machine that slows down
part-way slows both sets alike, writes <out>-a.json and <out>-b.json and
compares them. Comparison of two saved sets of the same code against the
bounds in BENCHMARK.json:

    python3 perfbench/run.py --compare .bench_build/steady-a.json \
        .bench_build/steady-b.json
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.basename(HERE)
DRIVER_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def repo_root():
    """The checkout the benchmark lives in; it must hold the program."""
    root = os.path.dirname(HERE)
    needed = ["CMakeLists.txt", os.path.join("src", "serve", "server.cc"),
              os.path.join("tools", "pinocchio_server.cc")]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        log("perfbench: the program's sources are missing here:",
            ", ".join(missing))
        sys.exit(2)
    return root


def build(root):
    """Configures once and builds the server and the driver (incremental)."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: cmake configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target",
           "pinocchio_server", "perfbench_driver"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("perfbench: build failed")
        sys.exit(2)
    return build_root, build_dir


def run_once(root, workload, seed, seconds, trace):
    """One driver run; returns (exit code, parsed JSON or None)."""
    build_root, build_dir = build(root)
    server = os.path.join(build_dir, "pinocchio", "tools", "pinocchio_server")
    driver = os.path.join(build_dir, "perfbench_driver")
    workdir = os.path.join(build_root, "perfbench-runs",
                           f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [driver, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--server={server}",
           f"--workdir={workdir}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 1, None
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread_table(runs):
    """Per metric: median, quartiles, IQR/median, (max-min)/median."""
    names = list(runs[0]["metrics"].keys())
    table = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        table[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "values": values, "median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0,
            "range_share": (max(values) - min(values)) / med if med else 0.0,
        }
    return table


def load_bounds(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def print_table(workload, seeds, seconds, table, bounds):
    print(f"{workload}: {len(seeds)} runs, seeds {', '.join(map(str, seeds))},"
          f" {seconds} s each")
    print(f"{'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'iqr/med':>9}{'rng/med':>9}{'bound':>7}")
    for name, row in table.items():
        bound = bounds.get(name, {}).get("bound", "")
        print(f"{name:<34}{row['median']:>12.5g}{row['q1']:>12.5g}"
              f"{row['q3']:>12.5g}{row['iqr_share']:>9.3f}"
              f"{row['range_share']:>9.3f}{bound!s:>7}")


def steadiness(root, args):
    """Runs --sets sets of --runs seeds each, interleaved run by run."""
    seeds = [[args.first_seed + 100 * k + i for i in range(args.runs)]
             for k in range(args.sets)]
    runs = [[] for _ in range(args.sets)]
    for i in range(args.runs):
        for k in range(args.sets):
            seed = seeds[k][i]
            code, result = run_once(root, args.workload, seed, args.seconds,
                                    args.trace)
            if code != 0 or result is None:
                log(f"perfbench: run with seed {seed} failed (exit {code})")
                sys.exit(1)
            runs[k].append(result)
    bounds = load_bounds(root) if args.trace == 0 else {}
    paths = []
    for k in range(args.sets):
        table = spread_table(runs[k])
        print_table(args.workload, seeds[k], args.seconds, table, bounds)
        if not args.out:
            continue
        path = args.out
        if args.sets > 1:
            stem, ext = os.path.splitext(args.out)
            path = f"{stem}-{chr(ord('a') + k)}{ext or '.json'}"
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "seeds": seeds[k], "table": table}, f, indent=1)
        paths.append(path)
    if len(paths) == 2 and bounds:
        sys.exit(compare(root, *paths))


def compare(root, path_a, path_b):
    """Second set vs first: median change against each metric's bound."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    bounds = load_bounds(root)
    ok = True
    print(f"{a['workload']}: {path_a} -> {path_b}")
    print(f"{'metric':<16}{'median A':>12}{'median B':>12}{'worse by':>10}"
          f"{'iqr A':>8}{'iqr B':>8}{'bound':>7}  verdict")
    for name, spec in bounds.items():
        ma = a["table"][name]["median"]
        mb = b["table"][name]["median"]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        worse = sign * (mb - ma) / ma if ma else 0.0
        ia = a["table"][name]["iqr_share"]
        ib = b["table"][name]["iqr_share"]
        verdict = "ok"
        if worse > spec["bound"]:
            verdict = "WORSE"
        elif name != "setup_s" and max(ia, ib) > spec["bound"]:
            verdict = "NOISY"
        ok = ok and verdict == "ok"
        print(f"{name:<16}{ma:>12.5g}{mb:>12.5g}{worse:>10.3f}{ia:>8.3f}"
              f"{ib:>8.3f}{spec['bound']:>7}  {verdict}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["vo-topk", "stream-ingest"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"))
    args = parser.parse_args()

    root = repo_root()
    if args.compare:
        sys.exit(compare(root, *args.compare))
    if not args.workload:
        parser.error("--workload is required")
    if args.steadiness:
        steadiness(root, args)
        return
    code, result = run_once(root, args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        log("perfbench: the driver printed no result")
        sys.exit(code or 1)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()

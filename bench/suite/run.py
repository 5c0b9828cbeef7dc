#!/usr/bin/env python3
"""One command for the sfdf benchmark suite.

    python3 bench/suite/run.py [--workload W] [--seed N|A-B|A,B,...]
                               [--seconds S] [--trace [0|1]] [--repeat K]
                               [--out FILE]
    python3 bench/suite/run.py --compare BASE.json OTHER.json [...]
    python3 bench/suite/run.py --smoke

Builds the suite binary (bench/suite/CMakeLists.txt) under .bench_build/,
then runs each workload in its own process with the fixed thread budget,
prints every metric as `name value unit`, and exits non-zero if any
operation failed or disagreed with its oracle.

With --workload, the last line of standard output is the run's result
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json untraced, the per-layer ones with --trace 1.
Without --workload every workload runs, and the runs are written with a
host block to --out (default .bench_build/suite/last_run.json) for
--compare. See bench/suite/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "suite")
SUITE_BIN = os.path.join(BUILD_DIR, "sfdf_suite")
WORKLOADS = ["pagerank-wiki", "cc-webbase", "cc-webbase-async", "gateway-cc"]
# Every workload process gets the same budget: 4 partitions, 4 engine
# workers (the gateway-cc server pins its own 2 workers + 2 dispatch
# threads).
THREAD_ENV = {"SFDF_THREADS": "4", "SFDF_ENGINE_WORKERS": "4"}
RUN_TIMEOUT_S = 170


class SuiteError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise SuiteError(f"cannot read {path}: {e}")


def build(targets):
    """Configures (once) and builds the suite; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        command = ["cmake", "-S", SUITE_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            # A half-configured tree would fail the same way next time.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise SuiteError("configuring the suite failed")
    command = ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 4)]
    for target in targets:
        command += ["--target", target]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        raise SuiteError("building the suite failed")


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return [0.0, 0.0, 0.0]


def host_block(seeds):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    nproc = os.cpu_count() or 1
    load = loadavg()
    if load[0] > nproc / 2:
        log(f"warning: loadavg1 {load[0]:.2f} > nproc/2 ({nproc / 2:g}); "
            "timings will be noisy")
    return {"nproc": nproc, "cpu": cpu, "loadavg_before": load,
            "build_type": build_type,
            "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown",
            "seeds": seeds}


def expected_metrics(benchmark, trace):
    return {m["name"]: m["unit"]
            for m in benchmark["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace, smoke=False, out_dir=None):
    """Runs one workload process; returns its result object."""
    command = [SUITE_BIN, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        command.append("--smoke")
    if out_dir:
        command += ["--out-dir", out_dir]
    # Own session, so a timeout takes the gateway-cc server down too.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               env={**os.environ, **THREAD_ENV},
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SuiteError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SuiteError(f"{workload}: sfdf_suite exited {process.returncode} "
                         "without a result")
    result["exit_code"] = process.returncode
    return result


def check_metrics(workload, result, expected, fill_missing):
    """Checks the emitted metric names against BENCHMARK.json. Per-layer
    metrics a workload does not exercise (the net.* ones of a batch job)
    are filled with 0; a missing end-to-end metric is an error."""
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(expected))
    if unknown:
        raise SuiteError(f"{workload}: metrics not in BENCHMARK.json: "
                         f"{', '.join(unknown)}")
    missing = sorted(set(expected) - set(metrics))
    if missing and not fill_missing:
        raise SuiteError(f"{workload}: missing metrics: {', '.join(missing)}")
    for name in missing:
        metrics[name] = {"value": 0, "unit": expected[name]}
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            raise SuiteError(f"{workload}: {name} has unit "
                             f"{metrics[name]['unit']}, expected {unit}")
    return set(expected) - set(missing)


def result_object(result):
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds += range(int(lo), int(hi) + 1)
        else:
            seeds.append(int(part))
    if not seeds or min(seeds) < 1:
        raise SuiteError("seeds must be positive integers")
    return seeds


def run(args, benchmark):
    """Runs the workloads. With --workload (the single-run form a benchmark
    harness invokes) one run's metrics are printed bare and its result
    object is the last line; otherwise every line carries its workload and
    the runs go to --out (default .bench_build/suite/last_run.json)."""
    seeds = parse_seeds(args.seed)
    single = args.workload is not None
    if single and (len(seeds) != 1 or args.repeat != 1):
        raise SuiteError("--workload runs one seed once")
    workloads = [args.workload] if single else WORKLOADS
    out = args.out or (None if single else
                       os.path.join(BUILD_DIR, "last_run.json"))
    out_dir = os.path.dirname(os.path.abspath(out)) if out else None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    build(["sfdf_suite"])
    host = host_block(seeds)
    expected = expected_metrics(benchmark, args.trace)
    runs = {w: [] for w in workloads}
    ok = True
    for workload in workloads:
        for seed in seeds:
            for _ in range(args.repeat):
                start = time.monotonic()
                result = run_workload(workload, seed, args.seconds, args.trace,
                                    out_dir=out_dir if args.trace else None)
                result["seed"] = seed
                result["wall_s"] = time.monotonic() - start
                check_metrics(workload, result, expected, args.trace)
                prefix = "" if single else workload + " "
                for name, metric in result["metrics"].items():
                    print(f"{prefix}{name} {metric['value']} {metric['unit']}")
                log(f"{workload} seed {seed}: {result['wall_s']:.1f} s, "
                    f"{result['failed']}/{result['attempted']} failed")
                ok = ok and result["exit_code"] == 0 and result["correct"]
                runs[workload].append(result)
    if out:
        host["loadavg_after"] = loadavg()
        with open(out, "w") as f:
            json.dump({"host": host, "trace": args.trace, "runs": runs}, f,
                      indent=1)
        log(f"wrote {out}")
    if single:
        print(json.dumps(result_object(result)))
    return 0 if ok else 1


def spread(values):
    """Median and quartiles; the quartile distance as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def compare(paths, benchmark):
    """Each end-to-end metric per workload: every side's median and
    quartiles against the first file's, the delta toward worse, and the
    bound. A metric is `unresolved` when either side's own quartile spread
    exceeds the bound, `WORSE` when the median moved the wrong way by more
    than it."""
    sides = []
    for path in paths:
        with open(path) as f:
            sides.append(json.load(f))
    for side, path in zip(sides, paths):
        host = side.get("host", {})
        log(f"{path}: {host.get('cpu')} nproc={host.get('nproc')} "
            f"sha={host.get('git_sha', '')[:12]} seeds={host.get('seeds')} "
            f"load={host.get('loadavg_before')}->{host.get('loadavg_after')}")
    base = sides[0]
    worse_found = False
    print(f"{'workload':<17} {'metric':<12} {'side':<5} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'delta':>8} {'bound':>6}  verdict")
    for workload in WORKLOADS:
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1

            def values(side):
                return [r["metrics"][name]["value"]
                        for r in side["runs"].get(workload, [])
                        if name in r["metrics"]]

            base_values = values(base)
            if not base_values:
                continue
            b_median, b_q1, b_q3, b_spread = spread(base_values)
            print(f"{workload:<17} {name:<12} {'A':<5} {b_median:>12.4g} "
                  f"{b_q1:>12.4g} {b_q3:>12.4g} {'':>8} {bound:>6.2f}")
            for index, side in enumerate(sides[1:], start=1):
                side_values = values(side)
                if not side_values:
                    continue
                median, q1, q3, side_spread = spread(side_values)
                delta = (median - b_median) / b_median if b_median else 0.0
                if max(b_spread, side_spread) > bound:
                    verdict = "unresolved"
                elif sign * delta > bound:
                    verdict = "WORSE"
                    worse_found = True
                else:
                    verdict = "ok"
                print(f"{'':<17} {'':<12} {chr(ord('A') + index):<5} "
                      f"{median:>12.4g} {q1:>12.4g} {q3:>12.4g} "
                      f"{delta:>+8.1%} {bound:>6.2f}  {verdict}")
    return 1 if worse_found else 0


def smoke(benchmark):
    """Every workload on tiny inputs, untraced and traced: no operation may
    fail, every workload must emit every end-to-end metric, and every
    per-layer metric must be emitted by some workload."""
    build(["sfdf_suite", "trace_fold_test"])
    fold_test = os.path.join(BUILD_DIR, "trace_fold_test")
    if os.path.exists(fold_test):
        if subprocess.run([fold_test], stdout=sys.stderr).returncode != 0:
            raise SuiteError("trace_fold_test failed")
    else:
        log("trace_fold_test not built (no GTest); skipped")
    measured = set()
    for trace in (False, True):
        expected = expected_metrics(benchmark, trace)
        for workload in WORKLOADS:
            result = run_workload(workload, 1, 1, trace, smoke=True)
            emitted = check_metrics(workload, result, expected, trace)
            if trace:
                measured |= emitted
            if result["exit_code"] != 0 or result["failed"] != 0:
                raise SuiteError(f"{workload}: {result['failed']} of "
                                 f"{result['attempted']} operations failed")
            log(f"smoke {workload} trace={int(trace)}: ok")
    never = sorted(set(expected_metrics(benchmark, True)) - measured)
    if never:
        raise SuiteError(f"per-layer metrics no workload emits: "
                         f"{', '.join(never)}")
    log("smoke: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Runs the sfdf benchmark suite (bench/suite/README.md).")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", default="1",
                        help="seed, or a list/range of seeds (1,2 or 1-10)")
    parser.add_argument("--seconds", type=float,
                        help="measured phase per run (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload and seed (all-workload form)")
    parser.add_argument("--out", help="JSON file for the runs and host block")
    parser.add_argument("--compare", nargs="+", metavar="RUN_JSON")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        benchmark = load_benchmark()
        if args.seconds is None:
            args.seconds = benchmark["run_seconds"]
        if args.compare:
            if len(args.compare) < 2:
                raise SuiteError("--compare needs at least two files")
            return compare(args.compare, benchmark)
        if args.smoke:
            return smoke(benchmark)
        return run(args, benchmark)
    except SuiteError as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

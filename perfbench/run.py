"""tverlab benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload count --seed 1 --seconds 40 --trace 0

--trace 0 runs set-up probes and one timed closed loop, and reports the
end-to-end metrics, with times in reference seconds (see clock.py).
--trace 1 runs a fixed list of rounds three times in fresh processes, once
untraced and twice traced, and reports the per-layer metrics.  It also
checks that the report bytes are identical across the three passes and that
every per-layer count repeats exactly.  The last line of stdout is one JSON
object; lines before it are the same numbers for people.
Full results (and the spans of a traced run) go to .perfbench-out/.
Worker processes run one at a time.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import clock  # noqa: E402
from spans import PER_LAYER, deterministic_counts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER_ALL = PER_LAYER + [("trace.overhead_ratio", "ratio", "lower")]
SETUP_PROBES = 10  # extra set-ups; with the measured run's own, setup_s is a median of 11
HELD_OUT_SEED = 20261017  # for confirming a claim on a seed not used to tune it
TIME_LIMIT_S = 170


class BenchError(Exception):
    pass


def check_manifest(root):
    """BENCHMARK.json must name exactly the metrics and workloads defined here."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    ours = (
        sorted(WORKLOADS),
        sorted((n, u) for n, u in END_TO_END),
        sorted((n, u, b) for n, u, b in PER_LAYER_ALL),
    )
    theirs = (
        sorted(w["name"] for w in manifest["workloads"]),
        sorted((m["name"], m["unit"]) for m in manifest["end_to_end"]),
        sorted((m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]),
    )
    if ours != theirs:
        raise BenchError("BENCHMARK.json does not match the metrics defined in perfbench/")


def source_sha256(src):
    """Digest of the package source, a stand-in for the commit outside git."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


class Runner:
    def __init__(self, root, workload, seed, deadline):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("TVERBERG_FACE_BUDGET", None)  # measure the default budget

    def launch(self, *extra):
        """Time a reference launch, then start a worker and wait for it.

        Returns (set-up seconds, reference launch seconds, result), both times
        wall time.  The result is None for a --probe launch, which stops after
        set-up."""
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            *extra,
        ]
        reference = clock.launch_seconds()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0
            if first != "ready\n":
                raise BenchError(f"worker did not start: {first!r}")
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the time limit")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        if "--probe" in extra:
            return setup, reference, None
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return setup, reference, json.loads(lines[-1])


def timed_run(runner, seconds):
    launches = [runner.launch("--probe") for _ in range(SETUP_PROBES)]
    launches.append(runner.launch("--seconds", str(seconds)))
    result = launches[-1][2]
    setups = [setup * clock.REFERENCE_LAUNCH_S / reference for setup, reference, _ in launches]
    metrics = {
        "ops_per_s": result["ops"] / result["reference_s"],
        "op_ms_p50": statistics.median(result["latencies_ms"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    # op_ms_p90 is printed and stored but not bounded; see README.md.
    # The wall-time figures are stored beside the reference-time ones.
    extra = {
        "ops_per_wall_s": result["ops"] / result["elapsed_s"],
        "setup_wall_s": statistics.median(setup for setup, _, _ in launches),
        "setup_samples_s": setups,
        "reference_launch_samples_s": [reference for _, reference, _ in launches],
        "op_latencies_ms": result["latencies_ms"],
    }
    if result["ops"] >= 100:  # enough ops for at least ten beyond the 90th percentile
        extra["op_ms_p90"] = statistics.quantiles(result["latencies_ms"], n=10)[8]
    return [result], metrics, extra, True


def traced_run(runner, rounds, spans_path):
    *_, plain = runner.launch("--rounds", str(rounds))
    *_, first = runner.launch("--rounds", str(rounds), "--trace", "--spans", spans_path)
    *_, second = runner.launch("--rounds", str(rounds), "--trace")
    metrics = dict(first["layers"])
    metrics["trace.overhead_ratio"] = first["elapsed_s"] / plain["elapsed_s"]
    same_bytes = len({r["report_sha256"] for r in (plain, first, second)}) == 1
    counts_a = deterministic_counts(first["layers"])
    counts_b = deterministic_counts(second["layers"])
    mismatched = sorted(k for k in counts_a if counts_a[k] != counts_b.get(k))
    extra = {
        "report_bytes_identical_across_passes": same_bytes,
        "counts_repeat": not mismatched,
        "counts_mismatched": mismatched,
        "top_self_ms": first["top_self_ms"],
        "untraced_elapsed_s": plain["elapsed_s"],
        "traced_elapsed_s": first["elapsed_s"],
        "spans": os.path.relpath(spans_path, runner.root),
    }
    return [plain, first, second], metrics, extra, same_bytes and not mismatched


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src", "tverlab")
    if not os.path.isfile(os.path.join(src, "cli.py")):
        print("error: run from the root of a tverlab checkout (no src/tverlab)", file=sys.stderr)
        return 2
    try:
        check_manifest(root)
    except (OSError, ValueError, KeyError, BenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    runner = Runner(root, args.workload, args.seed, time.monotonic() + TIME_LIMIT_S)
    try:
        if args.trace:
            rounds = WORKLOADS[args.workload].trace_rounds
            results, metrics, extra, consistent = traced_run(runner, rounds, stem + "-spans.tsv.gz")
            units = [(n, u) for n, u, _ in PER_LAYER_ALL]
        else:
            results, metrics, extra, consistent = timed_run(runner, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "source_sha256": source_sha256(src),
        "ops": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "report_sha256": results[0]["report_sha256"],
        "failures": [f for r in results for f in r["failures"]][:5],
        "metrics": metrics,
        **extra,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    for key in ("workload", "seed", "python", "nproc", "commit", "source_sha256", "report_sha256"):
        print(f"{key:>16}  {record[key]}")
    print(f"{'fail_frac':>16}  {record['fail_frac']} ({failed} of {attempted} ops)")
    for failure in record["failures"]:
        print(f"{'failure':>16}  {failure['reason']}: {' '.join(failure['argv'])}")
    if "op_ms_p90" in extra:
        print(f"{'op_ms_p90':>16}  {extra['op_ms_p90']} ms")
    for key, unit in (("ops_per_wall_s", "1/s"), ("setup_wall_s", "s")):
        if key in extra:
            print(f"{key:>16}  {extra[key]} {unit} (wall time)")
    for key in ("report_bytes_identical_across_passes", "counts_repeat", "counts_mismatched"):
        if key in extra:
            print(f"{key:>16}  {extra[key]}")
    for name, ms in extra.get("top_self_ms", []):
        print(f"{'top self time':>16}  {name} {ms:.1f} ms")
    for name, unit in units:
        print(f"{name:>50}  {metrics[name]} {unit}")

    summary = {
        "correct": consistent and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

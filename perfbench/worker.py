"""One workload run in a fresh single-threaded process (started by run.py).

Protocol on stdout: the line "ready" once tverlab is imported and the first
round of argv is generated (the end of set-up), then, unless --probe is
given, one JSON line with the run's results.  Each op is an in-process call
of `tverlab.cli.main(argv)` with stdout captured; outputs are checked after
the loop so that checking is not billed to the program.  A timed run
(--seconds) samples the machine's speed throughout and also reports its op
times in reference seconds; a run of fixed --rounds does not, so that a
traced run's spans hold only program time.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback


def run_op(main, argv):
    """(exit code, captured stdout, start, end); exit code None on an exception."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = None
    return code, buf.getvalue(), t0, time.perf_counter()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0, help="fixed round count; 0 = timed")
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("--spans", help="write the spans here (gzipped TSV)")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args()

    import tverlab.cli

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    rounds = workload.rounds(args.seed)
    ops = next(rounds)
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    sampler = None
    if not args.rounds:
        import clock

        sampler = clock.SpeedSampler()
    cli_main = tverlab.cli.main

    done = []  # (argv, exit code, output)
    op_times = []  # (start, end) of each op
    if sampler:
        sampler.start()
    started = time.perf_counter()
    deadline = started + args.seconds
    finished_rounds = 0
    while True:
        for argv in ops:
            if tracer:
                tracer.op = len(done)
            code, output, t0, t1 = run_op(cli_main, argv)
            done.append((argv, code, output))
            op_times.append((t0, t1))
        finished_rounds += 1
        now = time.perf_counter()
        if args.rounds:
            if finished_rounds == args.rounds:
                break
        elif now + (now - started) / finished_rounds > deadline:
            break  # a further round of average length would end past the deadline
        ops = next(rounds)
    ended = time.perf_counter()
    if sampler:
        sampler.stop()
        reference_s = sampler.reference_seconds(started, ended)
        latencies = [sampler.reference_seconds(t0, t1) for t0, t1 in op_times]
    else:
        reference_s = None
        latencies = [t1 - t0 for t0, t1 in op_times]

    digest = hashlib.sha256()
    failures = []
    report_bytes = 0
    for argv, code, output in done:
        data = output.encode()
        digest.update(data)
        report_bytes += len(data)
        reason = workload.check(argv, code, output)
        if reason is not None:
            failures.append({"argv": argv, "reason": reason})

    result = {
        "ops": len(done),
        "failed": len(failures),
        "failures": failures[:5],
        "elapsed_s": ended - started,
        "reference_s": reference_s,
        "latencies_ms": [s * 1e3 for s in latencies],
        "report_sha256": digest.hexdigest(),
        "report_bytes": report_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = spans.layer_metrics(tracer, report_bytes)
        result["top_self_ms"] = spans.top_self_times(tracer)
        if args.spans:
            tracer.write(args.spans)
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

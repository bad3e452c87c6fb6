"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload cluster_exact --seed 1 --seconds 30 --trace 0

Workloads: cluster_exact, cluster_sim, oracle_crosscheck (NOTES.md says
why each exists).  Every metric is printed by name and unit; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, from untraced ops.  With ``--trace 1`` an untraced phase
is followed by a traced one, the metrics are the per-layer ones, and the
spans go to ``perfbench/out/``.  Exits 2, printing no result, when the
package sources are not beside the benchmark.  ``--setup-only`` is the
child mode behind ``setup_s``: it sets the workload up, prints the
monotonic clock and exits.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS = 5  # setup_s is the median over this many fresh-process set-ups
MIN_OPS = 2  # a run times at least this many ops, however long they take
PERCENTILES = (99, 95, 90, 75, 50)


class Op(NamedTuple):
    seconds: float
    summary: Any  # None when the op raised
    error: str | None


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for p in PERCENTILES:
        k = int(len(ordered) * p / 100)
        if len(ordered) - k - 1 >= 10:
            return p, ordered[k]
    return None


def problems_of(check, *args) -> list[str]:
    """The problems ``check`` reports; an exception is one more problem."""
    try:
        return check(*args)
    except Exception as exc:  # a broken answer is a failed check
        traceback.print_exc()
        return [f"{type(exc).__name__}: {exc}"]


def measure(w, seconds: float, min_ops: int, tracer=None) -> list[Op]:
    """Ops until ``seconds`` have passed and ``min_ops`` have run."""
    rows: list[Op] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.op = len(rows)
        t0 = time.perf_counter()
        dt = summary = err = None
        try:
            out = w.op()
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None  # the summary's calls are not the op's
            summary = w.summarize(out)
            del out
        except Exception as exc:  # a failed op is counted, the run goes on
            traceback.print_exc()
            err = f"{type(exc).__name__}: {exc}"
        if dt is None:
            dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        rows.append(Op(dt, summary, err))
        if len(rows) >= min_ops and time.perf_counter() - start >= seconds:
            return rows


def cold_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh ``run.py --setup-only`` to the end of
    its set-up: interpreter start, imports, model generation, compile and
    warm-up.  Both ends read ``time.monotonic``, which on Linux is
    CLOCK_MONOTONIC, one clock for every process."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120)
    if done.returncode:
        raise RuntimeError(f"set-up process exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return float(done.stdout.split()[-1]) - t0


def timing_line(name: str, samples: list[float]) -> str:
    line = f"{name} = {statistics.median(samples):.6g} s (median of {len(samples)})"
    tail = tail_percentile(samples)
    if tail:
        line += f", p{tail[0]} = {tail[1]:.6g} s"
    else:
        line += ", no percentile with 10 samples beyond it"
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cluster_exact", "cluster_sim", "oracle_crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "passandswap" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import passandswap
    if not Path(passandswap.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: passandswap imported from {passandswap.__file__}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    w = workloads.WORKLOADS[args.workload](args.seed, OUT)
    if args.setup_only:
        w.setup()
        print(time.monotonic())
        return 0
    setups = [] if args.trace else [cold_setup(args.workload, args.seed)
                                    for _ in range(SETUPS)]
    w.setup()

    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    if args.trace:
        half = args.seconds / 2
        rows = measure(w, half, 1)
        untraced = [r.seconds for r in rows]
        tracer = tracing.Tracer()
        with tracer:
            base = time.perf_counter()
            traced_rows = measure(w, half, 1, tracer)
        rows += traced_rows
        traced = [r.seconds for r in traced_rows]
        overhead = statistics.median(traced) / statistics.median(untraced)
        trace = tracer.dump(base)
        metrics = tracing.per_layer(trace, len(traced), overhead)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({**trace, "per_layer": metrics}, indent=1))
        print(timing_line("untraced op", untraced))
        print(timing_line("traced op", traced))
        print(f"spans: {len(trace['spans'])}, kernel rows: "
              f"{len(trace['kernels'])}, written to {path.relative_to(HERE.parent)}")
        print(f"{'per-layer metric (per traced op)':<48} {'value':>14}  unit")
        for name, (value, unit) in metrics.items():
            print(f"{name:<48} {value:>14.6g}  {unit}")
    else:
        # The ladder runs after the ops and after peak RSS is read, so that
        # peak_rss_mb is the timed model's however far the ladder climbs.
        ladder = isinstance(w, workloads.ClusterExact)
        rows = measure(w, args.seconds / 2 if ladder else args.seconds, MIN_OPS)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if ladder:
            w.run_ladder()
        op_times = [r.seconds for r in rows]
        setup_s = statistics.median(setups)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s": (statistics.median(op_times), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        print(timing_line("op_s", op_times))
        print(f"setup_s = {setup_s:.6g} s (median of {SETUPS} fresh-process "
              "set-ups: " + ", ".join(f"{t:.4g}" for t in setups) + ")")
        print(f"peak_rss_mb = {peak_mb:.6g} MB")
        for name, value, unit, note in w.named(op_times):
            print(f"{name} = {value:.6g} {unit} ({note})")

    items = [(f"op {i}", [r.error] if r.error else problems_of(w.check, r.summary))
             for i, r in enumerate(rows)]
    summaries = [r.summary for r in rows if r.error is None]
    try:
        items += w.extra_checks(summaries)
    except Exception as exc:  # a broken answer is a failed check
        traceback.print_exc()
        items.append(("run checks", [f"{type(exc).__name__}: {exc}"]))
    failed = [(label, p) for label, p in items if p]
    for label, problems in failed:
        for problem in problems:
            print(f"FAIL {label}: {problem}")
    print(f"error_rate = {len(failed) / len(items):.6g} "
          f"({len(failed)} of {len(items)} ops and checks failed)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

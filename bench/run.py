"""matvt benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload paper-cells --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: matvt is imported from its ``src``
directory.  The caller is this one process, making its calls one after
another with no threads of its own (a closed loop with one client).  BLAS
thread counts are left as the environment sets them, and recorded.

After set-up (imports, inputs from the seed, one warm-up fit) the workload
runs whole rounds until ``--seconds`` have passed.  With ``--trace 0`` the
last line holds the end-to-end metrics; with ``--trace 1`` the first half of
the time runs untraced and the second half traced, and the last line holds
the per-layer metrics.  Spans and a full result document go to bench/out/.
"""

import os
import time

_T0 = time.perf_counter()


def _process_age():
    """Seconds the process had run before this module's first line."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE = _process_age()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "fit_s": "s",
    "normal_fit_s": "s",
    "sample_draws_per_s": "1/s",
    "score_obs_per_s": "1/s",
}


def import_matvt():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import matvt
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import matvt from {src}: {exc}")
    if not Path(matvt.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: imported matvt from {matvt.__file__}, not from {src}")
    return matvt


def environment():
    import numpy
    import scipy

    blas = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": blas or "unset",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_rounds(workload, seconds, min_rounds):
    """Whole rounds until ``seconds`` have passed; returns [(wall, ops)]."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        ops = workload.round()
        rounds.append((time.perf_counter() - t0, ops))
        if len(rounds) > 1:
            # later rounds are compared by fingerprint only; dropping their
            # outputs keeps peak memory independent of the round count
            for op in ops:
                op.result = None
    return rounds


def mean_seconds(ops, kind):
    sel = [op.seconds for op in ops if op.kind == kind]
    return sum(sel) / len(sel)


def rate(ops, kind):
    sel = [op for op in ops if op.kind == kind]
    return sum(op.size for op in sel) / sum(op.seconds for op in sel)


def end_to_end(rounds, setup_s, peak_rss_mb):
    med = lambda f: statistics.median(f(ops) for _, ops in rounds)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(w for w, _ in rounds),
        "peak_rss_mb": peak_rss_mb,
        "fit_s": med(lambda ops: mean_seconds(ops, "t_fit")),
        "normal_fit_s": med(lambda ops: mean_seconds(ops, "normal_fit")),
        "sample_draws_per_s": med(lambda ops: rate(ops, "sample")),
        "score_obs_per_s": med(lambda ops: rate(ops, "score")),
    }


def per_layer(tracer, traced, untraced):
    """Per-layer metric name -> (value per traced round, unit)."""
    n = len(traced)
    s = tracer.summary()
    c = tracer.counters
    get = lambda name, key: s.get(name, {}).get(key, 0)
    calls = lambda name: get(name, "calls") / n
    self_s = lambda name: get(name, "self_s") / n
    ratio = lambda a, b: a / b if b else 0.0
    iters = c.get("mxvt.iterations", 0) / n
    solves = calls("mxvt.solve_nu")
    kept = solves - calls("mxvt.nu_fallback")
    out = {
        "mxvt.iterations": (iters, "count"),
        "mxvt.estep.calls": (calls("mxvt.estep"), "count"),
        "mxvt.estep.self_s": (self_s("mxvt.estep"), "s"),
        "mxvt.cme1.self_s": (self_s("mxvt.cme1"), "s"),
        "mxvt.solve_nu.calls": (solves, "count"),
        "mxvt.solve_nu.self_s": (self_s("mxvt.solve_nu"), "s"),
        "mxvt.nu_fallback.calls": (calls("mxvt.nu_fallback"), "count"),
        "mxvt.nu_fallback.self_s": (self_s("mxvt.nu_fallback"), "s"),
        "mxvt.nu_root_accepted": (kept, "count"),
        "mxvt.nu_root_accepted_ratio": (ratio(kept, solves), "ratio"),
        "mxvt.fit.self_s": (self_s("mxvt.fit"), "s"),
        "distributions.t_bracket.calls": (calls("distributions.t_bracket"), "count"),
        "distributions.t_bracket.self_s": (self_s("distributions.t_bracket"), "s"),
        "distributions.t_bracket_per_iteration": (
            ratio(tracer.count_under("distributions.t_bracket", "mxvt.fit") / n, iters), "ratio"),
        "distributions.mxvt_logpdf.self_s": (self_s("distributions.mxvt_logpdf"), "s"),
        "distributions.sample_mxvt.self_s": (self_s("distributions.sample_mxvt"), "s"),
        "linalg.solve_lower_batch.calls": (calls("linalg.solve_lower_batch"), "count"),
        "linalg.solve_lower_batch.self_s": (self_s("linalg.solve_lower_batch"), "s"),
        "linalg.cholesky_logdet.calls": (calls("linalg.cholesky_logdet"), "count"),
        "linalg.cholesky_logdet.self_s": (self_s("linalg.cholesky_logdet"), "s"),
        "linalg.safe_cholesky.calls": (calls("linalg.safe_cholesky"), "count"),
        "specfun.lmvgamma.calls": (calls("specfun.lmvgamma"), "count"),
        "specfun.lmvgamma.self_s": (self_s("specfun.lmvgamma"), "s"),
        "specfun.mvdigamma.calls": (calls("specfun.mvdigamma"), "count"),
        "specfun.mvdigamma.self_s": (self_s("specfun.mvdigamma"), "s"),
        "mxvn.iterations": (c.get("mxvn.iterations", 0) / n, "count"),
        "mxvn.fit.self_s": (self_s("mxvn.fit"), "s"),
        "structures.update_scatter_inverse.self_s": (self_s("structures.update_scatter_inverse"), "s"),
        "structures.structured_scatter_direct.self_s": (self_s("structures.structured_scatter_direct"), "s"),
        "structures.constrained_mean.self_s": (self_s("structures.constrained_mean"), "s"),
        "classify.train.self_s": (self_s("classify.train"), "s"),
        "classify.train_pooled_s": (c.get("classify.train_pooled_s", 0.0) / n, "s"),
        "classify.scores.self_s": (self_s("classify.scores"), "s"),
        "classify.loocv.refits": (c.get("classify.loocv.refits", 0) / n, "count"),
        "classify.loocv.total_s": (get("classify.loocv", "total_s") / n, "s"),
        "trace.overhead_s": (statistics.median(w for w, _ in traced)
                             - statistics.median(w for w, _ in untraced), "s"),
    }
    return out


def fingerprints(rounds):
    return [[(op.kind, op.name, op.fingerprint) for op in ops] for _, ops in rounds]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mv = import_matvt()
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](mv, args.seed)
    workload.build()
    workload.warm_up()
    setup_s = _AGE + (time.perf_counter() - _T0)

    tracer = None
    if args.trace:
        untraced = run_rounds(workload, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(workload, args.seconds / 2, 1)
        finally:
            tracer.uninstall()
        rounds = untraced + traced
    else:
        # two rounds at least, so that peak memory always holds one round's
        # outputs next to the next round's
        rounds = run_rounds(workload, args.seconds, 2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    prints = fingerprints(rounds)
    if any(fp != prints[0] for fp in prints[1:]):
        problems.append("rounds disagree: outputs differ between rounds"
                        + (" (traced against untraced)" if args.trace else ""))
    problems += workload.check(rounds[0][1])
    attempted = sum(len(ops) for _, ops in rounds)
    failed = sum(op.failed for _, ops in rounds for op in ops)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer(tracer, traced, untraced).items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in end_to_end(rounds, setup_s, peak_rss_mb).items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": environment(), "rounds": len(rounds), "problems": problems,
        "ops": [{"kind": op.kind, "name": op.name, "seconds": op.seconds, "failed": op.failed,
                 "iterations": getattr(op.result, "iterations", None)} for op in rounds[0][1]],
        "round_wall_s": [w for w, _ in rounds],
        "result": result,
    }
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.npz")
        detail["layers"] = tracer.summary()
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"environment": detail["environment"], "rounds": len(rounds)}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

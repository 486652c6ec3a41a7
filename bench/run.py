"""panelcsd benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the run sets up, times whole passes over the workload for about
S seconds and prints the end-to-end metrics. With ``--trace 1`` it times one
untraced pass, then one traced pass plus an in-process replay, and prints the
per-layer metrics. Every run checks the outputs it produced. The last line of
standard output is a JSON object with the keys correct, attempted, failed and
metrics; the lines before it are for people.

``--out FILE`` also writes the full result, with the host record, to FILE.
``--write-reference`` stores this run's outputs as the reference for the
reference seed (see workloads.REFERENCE_SEED).
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported (here and in the workers
# run_mc spawns, which inherit the environment).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "_work")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
WORKLOAD_NAMES = ("mc_cross_section", "mc_serial_memory", "mc_size_sweep",
                  "cli_desk")
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "dgp.gen_panel_ms": "ms",
    "dgp.build_omega_ms": "ms",
    "estimators.fit_ms": "ms",
    "covariance.cov_cross_section_ms": "ms",
    "covariance.cov_kernel_ms": "ms",
    "covariance.true_variance_cs_ms": "ms",
    "covariance.true_variance_mixed_ms": "ms",
    "inference.wald_us": "us",
    "inference.parse_restrictions_us": "us",
    "montecarlo.run_mc_s": "s",
    "montecarlo.replay_busy_s": "s",
    "montecarlo.overhead_s": "s",
    "montecarlo.run_mc_calls": "count",
    "montecarlo.reps_attempted": "count",
    "montecarlo.reps_failed": "count",
    "panel.load_csv_s": "s",
    "panel.load_csv_rows_per_s": "1/s",
    "panel.csv_bytes": "bytes",
    "dependence.classify_s": "s",
    "cli.overhead_ms": "ms",
    "trace.overhead_frac": "frac",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="also write the full result")
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # one timed set-up, for setup_s
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import panelcsd from this checkout's src/ or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "panelcsd", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import panelcsd

    if os.path.dirname(os.path.dirname(os.path.realpath(panelcsd.__file__))) \
            != os.path.realpath(SRC):
        print(f"error: imported panelcsd from {panelcsd.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def worker_count() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def host_record(workers: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workers": workers,
    }


def setup_once(workload_cls, seed: int, workdir: str, workers: int):
    w = workload_cls(seed, workdir, workers)
    w.make_inputs()
    w.warm_up()
    return w


def stop_helpers() -> None:
    """Stop the multiprocessing resource tracker that run_mc's spawn pool
    starts, and wait for it and any other child to end. Left alone, the
    tracker outlives this process until it notices the closed pipe."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    elif getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
        if tracker._pid is not None:
            os.waitpid(tracker._pid, 0)
            tracker._pid = None


def setup_probe(args) -> None:
    """Child side of setup_s: import, generate inputs, warm up; print the
    elapsed seconds."""
    t0 = time.perf_counter()
    import_package()
    import workloads

    setup_once(workloads.WORKLOADS[args.workload], args.seed,
               os.path.join(WORK, args.workload + "_probe"), worker_count())
    elapsed = time.perf_counter() - t0
    stop_helpers()
    print(repr(elapsed))


def timed_setups(args) -> list[float]:
    """Set up SETUP_REPEATS times, each in a fresh interpreter so imports and
    lazy initialisation are paid every time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        # A session of its own, so a probe that hangs is killed together
        # with the pool workers and resource tracker it started.
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=120)
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {stderr[-2000:]}")
        samples.append(float(stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: the parent's peak plus the largest peak
    # among the reaped children (run_mc's pool workers).
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def check_reference(workload, out, checks, write: bool) -> None:
    import workloads

    if workload.seed != workloads.REFERENCE_SEED:
        return
    path = os.path.join(REFERENCE_DIR, workload.name + ".json")
    payload = workload.reference_payload(out)
    if write:
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
        return
    try:
        with open(path) as fh:
            want = json.load(fh)
    except (OSError, ValueError) as exc:
        checks.check(False, f"reference {path} unreadable: {exc}")
        return
    diffs = workloads.compare(payload, want)
    checks.check(not diffs, f"{workload.name} differs from the reference "
                 f"outputs: {diffs[:5]}")


def measure(args, workload, checks) -> tuple[dict, dict]:
    """Untraced passes for about args.seconds; wall_s and peak_rss_mb."""
    pass_s, outs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = workload.run_pass()
        pass_s.append(time.perf_counter() - t0)
        outs.append(out)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_s) > args.seconds:
            break
    for out in outs:
        workload.check(out, checks)
        check_reference(workload, out, checks, args.write_reference)
    extra = {name: {"value": v, "unit": u}
             for name, (v, u) in workload.pass_metrics(outs, pass_s).items()}
    values = {"wall_s": statistics.median(pass_s),
              "peak_rss_mb": peak_rss_mb()}
    return values, {"pass_s": pass_s, **extra}


def measure_traced(workload, checks) -> tuple[dict, dict]:
    """One untraced pass, one traced pass, then the layer metrics (for Monte
    Carlo workloads this replays every replication in-process)."""
    import spans
    import workloads

    t0 = time.perf_counter()
    plain = workload.run_pass()
    plain_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    t0 = time.perf_counter()
    out = workload.traced_pass(tracer)
    traced_s = time.perf_counter() - t0
    for o in (plain, out):
        workload.check(o, checks)
        check_reference(workload, o, checks, False)
    layer = {**workload.layer_metrics(tracer, out, checks),
             **workloads.common_layer_metrics(tracer.spans)}
    layer["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    # A layer the workload never calls reads 0.
    metrics = {name: {"value": layer.get(name, 0), "unit": unit}
               for name, unit in PER_LAYER.items()}
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, workload.name + ".spans.json"), "w") as fh:
        json.dump(tracer.spans, fh, default=str)
    detail = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
              "span_summary": spans.summary(tracer.spans)}
    return metrics, detail


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_helpers()


def run(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, BENCH_DIR)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_package()
    import workloads

    workers = worker_count()
    workload = setup_once(workloads.WORKLOADS[args.workload], args.seed,
                          os.path.join(WORK, args.workload), workers)
    checks = workloads.Checks()
    if args.trace:
        metrics, detail = measure_traced(workload, checks)
    else:
        values, detail = measure(args, workload, checks)
        setups = timed_setups(args)
        values["setup_s"] = statistics.median(setups)
        detail["setup_samples_s"] = setups
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    fail_frac = checks.failed / max(checks.attempted, 1)
    host = host_record(workers)

    print(f"workload {workload.name} seed {args.seed} "
          f"{'traced' if args.trace else 'untraced'}: {workload.why}")
    print("host " + json.dumps(host, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    for name, value in detail.items():
        if isinstance(value, dict) and "unit" in value:
            print(f"  {name:36s} {value['value']:>16.6g} {value['unit']}")
    print(f"  {'fail_frac':36s} {fail_frac:>16.6g} frac "
          f"({checks.failed} of {checks.attempted})")
    for problem in checks.problems:
        print(f"  FAILED: {problem}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "host": host, "metrics": metrics,
                       "fail_frac": fail_frac, "problems": checks.problems,
                       "detail": detail}, fh, sort_keys=True, indent=1,
                      default=str)
            fh.write("\n")
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

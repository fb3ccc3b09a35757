"""Benchmark of weylinv on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports weylinv from ./src and
nothing else of the repository. Each workload is a closed loop with one
caller: it draws a problem from the seed, runs one operation through the
public API, checks the output, and repeats until the next operation
would end after S seconds. Failed operations are counted, never retried.

--trace 0 prints the end-to-end metrics; --trace 1 runs each operation
once untraced and once with a span around every public call into
contour, forward and inverse, prints the per-layer metrics, and writes
the spans to perfbench/out/. Human-readable lines come first; the last
line of standard output is one JSON object.
"""

import os

# Fixed before numpy loads OpenBLAS. With two threads on a 2-core machine
# invert ran slower and spread more than with one.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if not (SRC / "weylinv" / "__init__.py").is_file():
    sys.exit(f"perfbench: no weylinv sources under {SRC}; "
             "run from the root of a weylinv checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import weylinv  # noqa: E402

if Path(weylinv.__file__).resolve().parent != SRC / "weylinv":
    sys.exit(f"perfbench: imported weylinv from {weylinv.__file__}, not {SRC}")

import spans  # noqa: E402
import workloads as wl  # noqa: E402

# name: (unit, definition). BENCHMARK.json lists the same names and units.
END_TO_END = {
    "setup_s": ("s", "median over set-ups in a fresh interpreter: import "
                "weylinv, build the problem, contour and config"),
    "forward_s": ("s", "median time of generate_weyl_data, in reference "
                  "seconds (see workloads.ReferenceClock)"),
    "invert_or_certify_s": ("s", "median time of invert (round trips), or of "
                            "check_m_equals_mstar plus solve_regular "
                            "(forward-matrix), in reference seconds"),
    "peak_rss_mb": ("MB", "peak resident memory of the benchmark process"),
}

RT = "roundtrip-scalar, roundtrip-matrix"
FM = "forward-matrix"
ALL = "all workloads"
STAGE2 = "invert_or_certify_s"
# name: (unit, better, end-to-end metric it should move, on which workloads).
# A layer a workload never calls reports 0 there.
PER_LAYER = {
    "contour.build_ms": ("ms", "lower", "setup_s", ALL),
    "forward.weyl_matrix_cut_ms": ("ms", "lower", "forward_s", ALL),
    "forward.weyl_matrix_cut_hi_ms": ("ms", "lower", "forward_s", ALL),
    "forward.weyl_matrix_circle_ms": ("ms", "lower", "forward_s", ALL),
    "forward.weyl_matrix_circle_hi_ms": ("ms", "lower", "forward_s", ALL),
    "forward.weyl_matrix_tail_ms": ("ms", "lower", "forward_s", ALL),
    "forward.weyl_matrix_tail_hi_ms": ("ms", "lower", "forward_s", ALL),
    "forward.adjoint_weyl_ms": ("ms", "lower", STAGE2, FM),
    "forward.solve_regular_ms": ("ms", "lower", STAGE2, FM),
    "forward.points": ("count", "higher", "forward_s (base of the per-point times)", ALL),
    "forward.failed": ("count", "lower", "the result's failed count", ALL),
    "forward.self_s": ("s", "lower", f"forward_s, {STAGE2} on {FM}", ALL),
    "forward.mstar_resid": ("1", "lower", "accuracy guard for forward_s changes", FM),
    "inverse.extract_A_ms": ("ms", "lower", STAGE2 + " (tiny, should stay flat)", RT),
    "inverse.slice_solve_ms": ("ms", "lower", STAGE2 + " (pass 1)", RT),
    "inverse.slice_solve_hi_ms": ("ms", "lower", STAGE2 + " (pass 1)", RT),
    "inverse.recover_potential_s": ("s", "lower", STAGE2, RT),
    "inverse.invert_pass1_s": ("s", "lower", STAGE2, RT),
    "inverse.born_pass_s": ("s", "lower", STAGE2 + " (the largest share of invert)", RT),
    "inverse.self_s": ("s", "lower", STAGE2, RT),
    "inverse.system_dim": ("count", "lower", STAGE2 + " (computed: K n)", RT),
    "inverse.lu_gflop": ("GFLOP", "lower", STAGE2 + " (computed: x_nodes passes (8/3)(K n)^3)", RT),
    "inverse.main_equation_residual": ("1", "lower", "accuracy guard for " + STAGE2, RT),
    "inverse.phi0_deviation": ("1", "lower", "accuracy guard for " + STAGE2, RT),
    "inverse.q_l1_rel": ("1", "lower", "accuracy guard for " + STAGE2, RT),
    "inverse.h_err": ("1", "lower", "accuracy guard for " + STAGE2, RT),
    "inverse.A_err": ("1", "lower", "accuracy guard for " + STAGE2, RT),
    "inverse.failed": ("count", "lower", "the result's failed count", RT),
    "trace.overhead_forward_s": ("s", "lower", "traced minus untraced forward_s", ALL),
    "trace.overhead_invert_s": ("s", "lower", "traced minus untraced invert_s", RT),
}


# ---------------------------------------------------------------------------
# Statistics and environment
# ---------------------------------------------------------------------------

def tail_percentile(xs):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile); the median when there are too few samples."""
    s = sorted(xs)
    i = len(s) - 11
    if i + 1 <= len(s) / 2:
        return statistics.median(s), 50
    return s[i], round(100 * (i + 1) / len(s))


def describe(xs, unit) -> str:
    if not xs:
        return "no samples"
    med = statistics.median(xs)
    hi, pct = tail_percentile(xs)
    tail = (f", p{pct} {hi:.4g} {unit}" if pct > 50
            else " (under 11 samples: no tail percentile)")
    return f"median {med:.4g} {unit}{tail}, n={len(xs)}"


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports it will use."""
    out = {}
    with open("/proc/self/maps") as f:
        libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[Path(path).name] = getattr(lib, sym)()
                break
    return out


def environment() -> dict:
    def blas_version(cfg):
        return cfg["Build Dependencies"]["blas"].get("version")

    with open("/proc/cpuinfo") as f:
        cpu = next((ln.split(":", 1)[1].strip() for ln in f
                    if ln.startswith("model name")), "unknown")
    return {
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_effective": _blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np.show_config(mode="dicts")),
        "openblas_scipy": blas_version(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
    }


def measure_setup(workload: str, seed: int, size: str, reps: int) -> list:
    """Set-up times, each in its own fresh interpreter."""
    out = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload,
             str(seed), size],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def closed_loop(seconds, rng, case, sizes, make_case, run_op, clock=None):
    """Run operations one after another until the next one would end
    after `seconds`; the first operation always runs. With a clock,
    every timed stage is bracketed by reference kernel samples."""
    outcomes, durations = [], []
    start = time.perf_counter()
    while (not durations or time.perf_counter() - start
           + statistics.median(durations) <= seconds):
        if outcomes:
            case = make_case(rng, sizes)
        out = wl.Outcome(clock=clock)
        t0 = time.perf_counter()
        try:
            run_op(out, case)
        except Exception as exc:  # counted as a failed operation
            out.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        durations.append(time.perf_counter() - t0)
        outcomes.append(out)
        stages = ", ".join(
            f"{k} {v:.3f}" + (f" (ref {out.ref[k]:.3f})" if k in out.ref else "")
            for k, v in out.times.items())
        print(f"# operation {len(outcomes)}: {stages}", flush=True)
        if out.failed:
            why = out.problems + ([out.error] if out.error else [])
            print(f"# operation {len(outcomes)} failed: " + "; ".join(why),
                  flush=True)
    return outcomes


def bench(workload: str, seed: int, seconds: float, trace: bool,
          size: str = "full", setup_reps: int = 5,
          out_dir: Path = BENCH / "out") -> dict:
    """Run one workload and return the result object; prints the
    human-readable report on the way."""
    w = wl.WORKLOADS[workload]
    sizes = wl.SIZES[size]
    env = environment()
    print("# env " + json.dumps(env), flush=True)

    setup = [] if trace else measure_setup(workload, seed, size, setup_reps)
    rng, case, contour, config = wl.build_inputs(w, seed, sizes)

    clock = None
    if trace:
        tr = spans.Tracer(workload, seed)
        traced = (spans.traced_forward if w.run is wl.run_forward
                  else spans.traced_roundtrip)

        def run_op(out, c):
            tr.op += 1
            traced(tr, out, c, contour, sizes)
    else:
        clock = wl.ReferenceClock()

        def run_op(out, c):
            w.run(out, c, contour, config)

    outcomes = closed_loop(seconds, rng, case, sizes, w.make_case, run_op,
                           clock)
    failed = sum(1 for o in outcomes if o.failed)
    print(f"# {workload} seed {seed}: {len(outcomes)} operations, "
          f"{failed} failed, failed_frac {failed / len(outcomes):.3g} (1)")

    if trace:
        metrics = per_layer_metrics(tr, outcomes, w, sizes,
                                    len(contour) * case.problem.dim)
        write_trace(out_dir, workload, seed, env, tr)
        for name, (unit, _, moves, where) in PER_LAYER.items():
            print(f"{name:34s} {metrics[name]:12.5g} {unit:6s} "
                  f"moves {moves}, on {where}")
    else:
        metrics = end_to_end_metrics(setup, outcomes)
        report_issue_metrics(setup, outcomes)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": (END_TO_END if not trace
                                             else PER_LAYER)[k][0]}
                    for k, v in metrics.items()},
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _stage(outcomes, key):
    return [o.times[key] for o in outcomes if key in o.times]


def _scaled(outcomes, key):
    """Stage times in reference seconds (see workloads.ReferenceClock)."""
    return [wl.REFERENCE_S * o.times[key] / o.ref[key]
            for o in outcomes if key in o.times]


def _median(xs, scale=1.0):
    return scale * statistics.median(xs) if xs else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(setup, outcomes) -> dict:
    stage2 = _scaled(outcomes, "invert_s") or _scaled(outcomes, "certify_s")
    return {
        "setup_s": statistics.median(setup),
        "forward_s": statistics.median(_scaled(outcomes, "forward_s")),
        "invert_or_certify_s": statistics.median(stage2),
        "peak_rss_mb": peak_rss_mb(),
    }


def report_issue_metrics(setup, outcomes):
    """Every end-to-end figure this workload has, with its unit."""
    print(f"setup_s              {describe(setup, 's')}")
    for key in ("forward_s", "invert_s", "certify_s"):
        xs = _scaled(outcomes, key)
        if xs:
            print(f"{key:20s} {describe(xs, 's')} (reference seconds)")
            wall = key.replace("_s", "_wall_s")
            print(f"{wall:20s} {describe(_stage(outcomes, key), 's')}")
    refs = [r for o in outcomes for r in o.ref.values()]
    print(f"ref_s                {describe(refs, 's')} "
          f"(reference kernel; REFERENCE_S = {wl.REFERENCE_S} s)")
    for key in ("q_l1_rel", "h_err", "A_err", "mstar_resid"):
        xs = [o.values[key] for o in outcomes if key in o.values]
        if xs:
            print(f"{key:20s} median {statistics.median(xs):.4g}, "
                  f"max {max(xs):.4g} (1), n={len(xs)}")
    print(f"peak_rss_mb          {peak_rss_mb():.1f} MB")


def per_layer_metrics(tr, outcomes, w, sizes, system_dim) -> dict:
    ms = 1e3
    d = tr.durations
    ops = len(outcomes)
    roundtrip = w.run is wl.run_roundtrip
    selfs = tr.self_times()
    errors = tr.failures()
    checked = sum(1 for o in outcomes if o.problems and o.error is None)
    m = {
        "contour.build_ms": _median(d("contour.build"), ms),
        "forward.adjoint_weyl_ms": _median(d("forward.adjoint_weyl"), ms),
        "forward.solve_regular_ms": _median(d("forward.solve_regular"), ms),
        "forward.points": sum(len(d(f"forward.weyl_matrix_{k}"))
                              for k in ("cut", "circle", "tail", "certify")),
        "forward.failed": errors.get("forward", 0) + (0 if roundtrip else checked),
        "forward.self_s": selfs.get("forward", 0.0) / ops,
        "inverse.extract_A_ms": _median(d("inverse.extract_A"), ms),
        "inverse.recover_potential_s": _median(d("inverse.recover_potential")),
        "inverse.invert_pass1_s": _median(d("inverse.invert_pass1")),
        "inverse.self_s": selfs.get("inverse", 0.0) / ops,
        "inverse.failed": errors.get("inverse", 0) + (checked if roundtrip else 0),
        "trace.overhead_forward_s": _median(
            [o.times["forward_s"] - o.times["plain_forward_s"]
             for o in outcomes if "forward_s" in o.times]),
        "trace.overhead_invert_s": _median(
            [o.times["invert_s"] - o.times["plain_invert_s"]
             for o in outcomes if "invert_s" in o.times]),
    }
    for seg in ("cut", "circle", "tail"):
        xs = d(f"forward.weyl_matrix_{seg}")
        m[f"forward.weyl_matrix_{seg}_ms"] = _median(xs, ms)
        m[f"forward.weyl_matrix_{seg}_hi_ms"] = (
            ms * tail_percentile(xs)[0] if xs else 0.0)
    slices = d("inverse.slice_solve")
    m["inverse.slice_solve_ms"] = _median(slices, ms)
    m["inverse.slice_solve_hi_ms"] = ms * tail_percentile(slices)[0] if slices else 0.0
    m["inverse.born_pass_s"] = (_median(d("inverse.invert"))
                                - m["inverse.invert_pass1_s"])
    dim = system_dim if roundtrip else 0
    m["inverse.system_dim"] = dim
    m["inverse.lu_gflop"] = sizes.x_nodes * sizes.passes * (8 / 3) * dim ** 3 / 1e9
    for key in ("main_equation_residual", "phi0_deviation", "q_l1_rel",
                "h_err", "A_err"):
        m[f"inverse.{key}"] = _median(
            [o.values[key] for o in outcomes if key in o.values])
    m["forward.mstar_resid"] = _median(
        [o.values["mstar_resid"] for o in outcomes if "mstar_resid" in o.values])
    return {k: float(m[k]) for k in PER_LAYER}


def write_trace(out_dir: Path, workload, seed, env, tr):
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = tr.spans[0]["start"] if tr.spans else 0.0
    rows = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in tr.spans]
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"env": env, "spans": rows}))
    print(f"# spans written to {path}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

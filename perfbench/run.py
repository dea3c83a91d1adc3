"""orbk benchmark: time to a verified verdict on three workloads.

    python3 perfbench/run.py --workload gram_highdeg --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ./src.  With
--trace 0 the last line of stdout holds the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run.  The line before it holds details:
the tail percentile and sample count, failures, report digests, the
machine and its speed.  Every op is judged by the exact oracles in
oracles.py, untimed.  Times are scaled to a machine of fixed speed
(speed.py).  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# str hashes set dict and set layouts, and with them the cost of string-heavy
# ops (click, json, jsonschema): an op's median moved by up to 25% from one
# process to the next under random hash seeds.  Every run uses this one.
HASH_SEED = "0"
SETUP_REPEATS = 5
MIN_PASSES = 3  # so that the median is not the first pass, which pays
                # node generation and lazy imports

END_TO_END = {"run_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "quadrature.integrate_radial.calls": "count",
    "quadrature.integrate_radial.self_s": "s",
    "quadrature.nodes": "count",
    "quadrature.doublings": "count",
    "sections.build_section_space.self_s": "s",
    "sections.build_perturbed_space.self_s": "s",
    "sections.basis_elements": "count",
    "groups.invariant_monomials.calls": "count",
    "groups.invariant_monomials.self_s": "s",
    "asymptotics.character_sum_bound.self_s": "s",
    "asymptotics.charsum_lattice_points": "count",
    "asymptotics.recover_potential.self_s": "s",
    "asymptotics.pair_with_test_function.self_s": "s",
    "asymptotics.lower_bound_scan.self_s": "s",
    "asymptotics.fit_expansion.self_s": "s",
    "asymptotics.fit_decay_rate.self_s": "s",
    "bergman.density.calls": "count",
    "bergman.density.self_s": "s",
    "bergman.football_density_closed_form.calls": "count",
    "bergman.football_density_closed_form.self_s": "s",
    "bergman.metric_pullback_deviation.self_s": "s",
    "index.rrk_euler_characteristic.self_s": "s",
    "index.b_coefficient.self_s": "s",
    "localmodel.check_identities.self_s": "s",
    "localmodel.grid_points": "count",
    "models.build_model.self_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
    "fail_frac": "ratio",
}


def import_library():
    """Put ./src first on the path and make sure orbk comes from there."""
    src = ROOT / "src"
    if not (src / "orbk" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'orbk'} not found; run from an orbk checkout")
    sys.path.insert(0, str(src))
    import orbk.cli  # noqa: F401  (what a fresh CLI process imports)

    if Path(orbk.cli.__file__).resolve().parents[2] != ROOT:
        sys.exit(f"error: orbk imported from {orbk.cli.__file__}, not {src}")


def run_pass(workload, ctx, meter):
    """One pass over all ops: per-op nominal and wall seconds, errors and
    report digests.

    Results are judged and dropped inside the pass, so memory does not grow
    with the number of passes.
    """
    times, walls, results, errors = [], [], [], {}
    for i, op in enumerate(workload.ops):
        if ctx.tracer:
            ctx.tracer.op_id = i
        with meter.timing() as took:
            try:
                result = op.run(ctx)
            except Exception as exc:  # a raising op is a failed op, not a crash
                result = None
                errors[i] = f"raised {type(exc).__name__}: {exc}"
        times.append(took["nominal_s"])
        walls.append(took["wall_s"])
        results.append(result)
    for i, op in enumerate(workload.ops):  # untimed oracles
        if i not in errors:
            error = op.check(results[i])
            if error:
                errors[i] = error
    for i, error in workload.check_pass(workload.ops, results).items():
        errors.setdefault(i, error)
    digests = {op.key: workload.digest(results[i]) for i, op in enumerate(workload.ops)
               if workload.digest and i not in errors}
    return times, walls, errors, digests


def measure(workload, ctx, meter, seconds, tracer=None, between=lambda: None):
    """(untraced passes, traced passes): as many as fit in `seconds` of op
    wall time.

    With a tracer, untraced and traced passes alternate, so that both see the
    same phases of the machine, after one warm-up pass that is not kept, so
    that neither kind pays lazy imports; each kind gets at least two passes.
    `between` runs after each pass, untimed.
    """
    kinds = (None, tracer) if tracer else (None,)
    if tracer:
        run_pass(workload, ctx, meter)
    passes = {kind: [] for kind in kinds}
    spent, count = 0.0, 0
    least = 4 if tracer else MIN_PASSES
    while count < least or spent + spent / count <= seconds:
        kind = ctx.tracer = kinds[count % len(kinds)]
        with kind or contextlib.nullcontext():
            result = run_pass(workload, ctx, meter)
        spent += sum(result[1])
        count += 1
        passes[kind].append(result)
        between()
    ctx.tracer = None
    return passes[None], passes[tracer] if tracer else []


def setup_seconds(workload_name: str, seed: int, meter) -> dict:
    """Nominal and wall time of a fresh process that sets up and runs the
    warm-up op."""
    with meter.timing(inline=False) as took:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"error: set-up process failed:\n{proc.stderr[-2000:]}")
    return took


def tail_percentile(latencies: list[float]):
    """Highest integer percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None, math.inf


def op_latencies(passes, field=0) -> list[float]:
    """Per-op median latency over passes (field 0: nominal, 1: wall); a
    failed op counts as infinite."""
    out = []
    for i in range(len(passes[0][0])):
        if any(i in errors for _, _, errors, _ in passes):
            out.append(math.inf)
        else:
            out.append(statistics.median(p[field][i] for p in passes))
    return out


def number(value):
    return value if value is not None and math.isfinite(value) else None


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, sys.orig_argv)  # the same process, re-run
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    orbk_threads = os.environ.pop("ORBK_THREADS", None)  # default: one thread
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        ctx = workloads.Context(workdir=workdir)
        if args.setup_child:
            from orbk import models

            for spec in workload.specs:
                models.build_model(spec)
            workload.warmup.run(ctx)
            return 0
        return benchmark(args, workload, ctx, orbk_threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()


def benchmark(args, workload, ctx, orbk_threads) -> int:
    from speed import Speedometer
    from tracer import Tracer

    meter = Speedometer(ticks=not args.trace)  # ticks would land in spans
    # Set-up samples are taken between passes, so that they span the same
    # phases of the machine as the passes.
    setup = []

    def setup_sample():
        if not args.trace and len(setup) < SETUP_REPEATS:
            setup.append(setup_seconds(args.workload, args.seed, meter))

    # Import-time objects never die; keep the collector from rescanning them,
    # so that a full collection costs the same wherever it lands.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if args.trace else None
    plain, traced = measure(workload, ctx, meter, args.seconds, tracer, setup_sample)
    for _ in range(SETUP_REPEATS):
        setup_sample()
    passes = plain + traced

    attempted = sum(len(times) for times, *_ in passes)
    failed = sum(len(errors) for _, _, errors, _ in passes)
    raised = sum(1 for _, _, errors, _ in passes for e in errors.values()
                 if e.startswith("raised "))
    digests = {}
    for *_, pass_digests in passes:
        for key, digest in pass_digests.items():
            digests.setdefault(key, set()).add(digest)
    digests_ok = all(len(d) == 1 for d in digests.values())
    correct = failed == raised and digests_ok

    latencies = op_latencies(plain)
    wall_latencies = op_latencies(plain, field=1)
    percentile, tail = tail_percentile(latencies)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(plain), "traced_passes": len(traced),
        "ops_per_pass": len(workload.ops),
        "op_tail_percentile": percentile, "op_latency_samples": len(latencies),
        "pass_s": [sum(times) for times, *_ in plain],
        "setup_samples_s": [took["nominal_s"] for took in setup],
        # the same figures unscaled, as the wall clock read them
        "wall": {"run_s": sum(wall_latencies),
                 "op_p50_ms": 1e3 * statistics.median(wall_latencies),
                 "op_tail_ms": 1e3 * tail_percentile(wall_latencies)[1],
                 "pass_s": [sum(walls) for _, walls, *_ in plain],
                 "setup_samples_s": [took["wall_s"] for took in setup]},
        "speed": statistics.quantiles(meter.samples, n=10)[::4],  # p10, p50, p90
        "failures": sorted({f"{workload.ops[i].key}: {e}"
                            for _, _, errors, _ in passes for i, e in errors.items()}),
        "report_digests": {k: sorted(v) for k, v in digests.items()},
        "digests_identical": digests_ok,
        "machine": machine_facts(orbk_threads),
    }
    print(json.dumps(details, sort_keys=True))

    if args.trace:
        metrics = layer_metrics(tracer, plain, traced, failed / attempted)
        units = PER_LAYER
    else:
        metrics = {
            "run_s": sum(latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(took["nominal_s"] for took in setup),
        }
        units = END_TO_END
        correct = correct and all(number(v) is not None for v in metrics.values())
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": number(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


def layer_metrics(tracer, plain, traced, fail_frac) -> dict:
    npasses = len(traced)
    summary = tracer.summary(npasses)

    def span(name, field):
        if name not in tracer.available:
            return None
        return summary.get(name, {"calls": 0, "self_s": 0.0})[field]

    out = {}
    for metric in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if field in ("calls", "self_s"):
            out[metric] = span(head, field)
        elif metric in tracer.available:
            out[metric] = tracer.counters[metric] / npasses
    out["trace.overhead_s"] = sum(op_latencies(traced)) - sum(op_latencies(plain))
    out["fail_frac"] = fail_frac
    return {k: out.get(k) for k in PER_LAYER}


def machine_facts(orbk_threads) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "ORBK_THREADS": orbk_threads, "generating_processes": 1,
            "worker_threads": 0}


if __name__ == "__main__":
    sys.exit(main())

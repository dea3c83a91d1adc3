"""The three workloads: their seeded ops, how each op runs and how it is judged.

An op is one unit that gets a verdict.  `Op.run` calls the library and is
timed; `Op.check` runs the benchmark's own oracles, untimed, and returns an
error string or None.  Library functions are looked up through their module
at call time, so a traced run sees every call.

gram_highdeg draws one degree per rung from the multiples of the model's
degree step within 4% of the rung, leaving out FAILING_DEGREES: the radial
quadrature fails on those (see baseline.json), and a failure in a fresh
process spends ~2 minutes generating Gauss-Legendre nodes, so a drawn op that
fails would not fit a run.  `scan_failing.py` re-derives the table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

GRAM_MODELS = ({"kind": "football", "n": 2}, {"kind": "football", "n": 3},
               {"kind": "football", "n": 4}, {"kind": "wpl", "d": [2, 3]},
               {"kind": "wpl", "d": [3, 5]}, {"kind": "wpl", "d": [2, 7]})
GRAM_RUNGS = (40, 100, 250, 600, 1500, 3500, 6000)
GRAM_TOP = 6000  # 6000 < m < MAX_DEGREE: failures there spend ~2 min each
RECOVER_DEGREES = (48, 100, 200, 400, 800, 1600)
# Bump and test-function shapes are fixed, and the seed only orders the ops:
# recovery cost differs by up to 45% between bump shapes and pairing cost
# from 2 to 50 ms between windows, so drawing them per seed would swamp the
# run-to-run spread.  One bump per n keeps the median op among the pairing
# windows and the tail op among clusters of like cost.
RECOVER_BUMPS = {2: (0.09, 1.0, 3.0), 3: (0.12, 0.5, 3.5)}
PAIRING_FUNCTIONS = ((1.0, 2.0), (0.5, 1.5), (1.5, 3.0))  # (amplitude, width)
PAIRING_ENDS = (400, 800, 1600, 3200)


def model_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


# Candidates on which integrate_radial raises QuadratureError at 51200 nodes
# on the parent commit, per model of GRAM_MODELS; none lie below 3360.
FAILING_DEGREES = {model_key(spec): set(degrees) for spec, degrees in zip(GRAM_MODELS, (
    (3360, 3500, 3536, 3570, 3640, 5760, 5820, 5880),
    (3360, 3429, 3465, 3501, 3570, 3606, 5760, 5820, 5880),
    (3360, 3500, 3536, 3640, 5760, 5820, 5880),
    (3360, 3465, 5760, 5820, 5880, 5940),
    (3360, 3430, 3465, 3640, 5760, 5820, 5880, 5940),
    (3360, 3430, 3465, 3640, 5880),
))}


def degree_step(spec: dict) -> int:
    return spec["n"] if spec["kind"] == "football" else 1


def jittered(base: int, step: int, pct: int, cap: int | None = None) -> list[int]:
    """Multiples of step within pct percent of base (at most cap)."""
    out = sorted({max(step, round(base * (1 + j / 100) / step) * step)
                  for j in range(-pct, pct + 1)})
    return [m for m in out if cap is None or m <= cap]


@dataclass
class Context:
    """What an op may use besides its inputs: the tracer and a report dir."""

    workdir: Path
    tracer: object = None


@dataclass
class Op:
    key: str
    run: Callable[[Context], object]
    check: Callable[[object], str | None]
    group: str = ""  # ops of one recovery curve share a group
    degree: int = 0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    specs: list[dict]
    warmup: Op
    # judges a whole pass; maps op index -> error, for verdicts across ops
    check_pass: Callable[[list[Op], list[object]], dict[int, str]] = (
        lambda ops, results: {})
    digest: Callable[[object], str] | None = None  # of a result that must not vary


# ---------------------------------------------------------------- gram_highdeg

def gram_op(spec: dict, m: int, points: list[tuple[float, str]]) -> Op:
    from orbk import bergman, models, sections

    def run(ctx):
        model = models.build_model(spec)
        space = sections.build_section_space(model, m)
        values = [bergman.density(space, complex(math.sqrt(u)), chart)
                  for u, chart in points]
        return space, values

    def check(result):
        space, values = result
        expected = oracles.lattice_points(spec, m)
        if list(space.basis) != expected:
            return f"basis has {space.dim} elements, lattice has {len(expected)}"
        exact = oracles.exact_log_norms(spec, m, space.basis)
        worst = max(abs(a - b) for a, b in zip(space.log_gram_diag, exact))
        if not worst <= oracles.LOG_NORM_TOL:
            return f"log Gram entry off by {worst:.3e}"
        for (u, chart), value in zip(points, values):
            ref = oracles.exact_density(spec, m, u)
            # at the cone point of P(d0, d1) the density is 0 unless d0 | m
            rel = abs(value - ref) / abs(ref) if ref else abs(value)
            if not rel <= oracles.DENSITY_REL_TOL:
                return f"density at u={u} ({chart}) rel err {rel:.3e}"
        return None

    return Op(f"gram {model_key(spec)} m={m}", run, check)


def gram_points(rng: random.Random, spec: dict) -> list[tuple[float, str]]:
    """The cone point u=0 plus two seeded chart points."""
    charts = ("u0", "u1") if spec["kind"] == "football" else ("u0",)
    return [(0.0, "u0")] + [(rng.uniform(0.05, 4.0), rng.choice(charts))
                            for _ in range(2)]


def gram_candidates(spec: dict, rung: int) -> list[int]:
    """The degrees a rung may draw: near the rung and known to pass."""
    failing = FAILING_DEGREES[model_key(spec)]
    return [m for m in jittered(rung, degree_step(spec), 4, GRAM_TOP) if m not in failing]


def gram_highdeg(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for spec in GRAM_MODELS:
        for rung in GRAM_RUNGS:
            ops.append(gram_op(spec, rng.choice(gram_candidates(spec, rung)),
                               gram_points(rng, spec)))
    # The warm-up of set-up is the heaviest op: the top rung of football n=2.
    warm = ops[len(GRAM_RUNGS) - 1]
    rng.shuffle(ops)
    return Workload("gram_highdeg", ops, list(GRAM_MODELS), warm)


# -------------------------------------------------------------- perturbed_sweep

def recover_op(n: int, bump: tuple, m: int) -> Op:
    from orbk import asymptotics, models, sections

    def run(ctx):
        model = models.build_model({"kind": "football", "n": n})
        phi = sections.RadialBump(*bump)
        return asymptotics.recover_potential(model, phi, [m])[m]

    def check(value):
        return None if math.isfinite(value) else f"sup error {value}"

    return Op(f"recover n={n} bump={list(bump)} m={m}", run, check,
              group=f"recover n={n} bump={list(bump)}", degree=m)


def recover_degrees(n: int) -> list[int]:
    return [m - m % n for m in RECOVER_DEGREES]


def pairing_op(n: int, end: int, amplitude: float, width: float) -> Op:
    from orbk import asymptotics, models, sections

    ms = [end - n * k for k in range(8)]

    def run(ctx):
        model = models.build_model({"kind": "football", "n": n})
        phi = sections.RadialBump(amplitude, 0.0, width)
        return asymptotics.pair_with_test_function(model, ms, phi)

    def check(result):
        if sorted(result.ms) != sorted(ms):
            return f"pairing degrees {result.ms} != {ms}"
        if not oracles.pairing_ok(n, amplitude, result.limit):
            return f"pairing limit {result.limit} not within 2% of b*phi(0)"
        return None

    return Op(f"pairing n={n} end={end} amp={amplitude} width={width}", run, check)


def check_recovery_curves(ops: list[Op], results: list[object]) -> dict[int, str]:
    curves: dict[str, list[int]] = {}
    for i, op in enumerate(ops):
        if op.group and results[i] is not None:
            curves.setdefault(op.group, []).append(i)
    errors = {}
    for members in curves.values():
        members.sort(key=lambda i: ops[i].degree)
        values = [results[i] for i in members]
        for i, ok in zip(members, oracles.recovery_curve_ok(values)):
            if not ok:
                errors[i] = f"recovery curve {values} breaks the CLI rule"
    return errors


def perturbed_ops() -> list[Op]:
    ops = [recover_op(n, bump, m) for n, bump in RECOVER_BUMPS.items()
           for m in recover_degrees(n)]
    ops += [pairing_op(n, round(end / n) * n, amplitude, width)
            for n in (2, 3, 4) for end in PAIRING_ENDS
            for amplitude, width in PAIRING_FUNCTIONS]
    return ops


def perturbed_sweep(seed: int) -> Workload:
    ops = perturbed_ops()
    random.Random(seed).shuffle(ops)
    specs = [{"kind": "football", "n": n} for n in (2, 3, 4)]
    warm = recover_op(2, RECOVER_BUMPS[2], recover_degrees(2)[-1])  # the heaviest op
    return Workload("perturbed_sweep", ops, specs, warm,
                    check_pass=check_recovery_curves)


# --------------------------------------------------------------- cli_acceptance

WPL_PAIRS = ((1, 2), (2, 3), (3, 4), (2, 5), (3, 5), (4, 5), (5, 6),
             (2, 7), (3, 7), (4, 7), (5, 7), (6, 7))


def acceptance_invocations() -> list[list[str]]:
    """The 47 `orbk` invocations that mirror tests/test_acceptance.py.

    split is not in the acceptance gate; it is added so that all 13
    subcommands run.
    """
    inv = []
    for n in (2, 3, 4):  # criterion 1: density n(m+1) at the cone point
        inv.append(["density", "--model", "football", "--n", str(n),
                    "--m", f"{n}:80:{n}", "--r", "0.0"])
    for n in range(2, 13):  # criterion 2
        inv.append(["bcoef", "--model", json.dumps({"kind": "football", "n": n})])
    for n in range(1, 7):  # criterion 3
        inv.append(["rrk", "--model", "football", "--n", str(n),
                    "--m", f"0:{30 * n}:{n}"])
    for d in WPL_PAIRS:
        inv.append(["rrk", "--model", json.dumps({"kind": "wpl", "d": list(d)}),
                    "--m", "0:60"])
    for n in (2, 3):  # criterion 4
        inv.append(["fit", "--n", str(n), "--m", f"{n}:200:{n}", "--r", "1.0"])
    for n in (2, 3, 4):  # criterion 5
        end = 400 - 400 % n
        inv.append(["pairing", "--n", str(n), "--m", f"{end - 7 * n}:{end}:{n}",
                    "--amplitude", "1.0", "--width", "2.0"])
    for r in ("0.5", "1.0"):  # criterion 6: decay, then the noise floor
        inv.append(["decay", "--n", "2", "--m", "10:200:2", "--r", r])
    inv.append(["charsum", "--cases", "100", "--seed", "0"])  # criterion 7
    inv.append(["lowerbound", "--n", "2", "--m", "10:200:2"])  # criterion 8
    for x in ("512", "1024"):  # criterion 9
        inv.append(["localmodel", "--x-points", x, "--y-points", "256"])
    inv.append(["phase"])  # criterion 10
    inv.append(["recover", "--n", "2", "--m", "20:100:20", "--amplitude", "0.1",
                "--center", "1.0", "--width", "3.0"])  # criterion 11
    inv.append(["pullback", "--n", "2", "--m", "10"])  # criterion 12
    inv.append(["split", "--n", "3", "--m", "12", "--r", "0.5"])
    return inv


def _opt(args: list[str], flag: str) -> str:
    return args[args.index(flag) + 1]


def _check_report(args: list[str], report: dict) -> str | None:
    """Subcommand-specific exact oracles on a parsed report."""
    cmd, rows, summary = args[0], report["rows"], report["summary"]
    if cmd == "density":
        n = int(_opt(args, "--n"))
        for row in rows:
            ref = oracles.football_density(n, row["m"], row["r"])
            if abs(row["gram_path"] - ref) > oracles.DENSITY_REL_TOL * ref:
                return f"density m={row['m']} is {row['gram_path']}, exact {ref}"
    elif cmd == "bcoef":
        n = json.loads(_opt(args, "--model"))["n"]
        b = oracles.delta_coefficient(n)
        for row in rows:
            if row["exact"] != str(b) or abs(row["b"] - float(b)) > 1e-12:
                return f"b at {row['chart']} is {row['b']}, exact {b}"
    elif cmd == "rrk":
        model = _opt(args, "--model")
        spec = (json.loads(model) if model.startswith("{")
                else {"kind": model, "n": int(_opt(args, "--n"))})
        for row in rows:
            count = len(oracles.lattice_points(spec, row["m"]))
            if row["oracle"] != count or row["total"] != str(count):
                return f"rrk m={row['m']}: total {row['total']}, lattice {count}"
    elif cmd == "fit":
        if abs(summary["a0_in_m"] - 1) > 1e-6 or abs(summary["a1_in_m"] - 1) > 1e-3:
            return f"fit a0={summary['a0_in_m']} a1={summary['a1_in_m']}, exact 1, 1"
    elif cmd == "pairing":
        n = int(_opt(args, "--n"))
        if not oracles.pairing_ok(n, float(_opt(args, "--amplitude")), summary["limit"]):
            return f"pairing limit {summary['limit']}"
    elif cmd == "decay":
        expect = "noise_floor" if _opt(args, "--r") == "1.0" else "decay"
        if summary["outcome"] != expect:
            return f"decay outcome {summary['outcome']}, expected {expect}"
    elif cmd == "charsum":
        if len(rows) != 100 or any(r["rel_err"] >= 1e-10 or not r["positive"]
                                   for r in rows):
            return "charsum identity broken"
    elif cmd == "lowerbound":
        if not summary["inf"] > 0.4:
            return f"lower bound {summary['inf']}"
    elif cmd == "localmodel":
        worst = max(max(r["d0_residual"], r["rstar_r_residual"]) for r in rows)
        if not worst < 1e-6:
            return f"local model residual {worst}"
    elif cmd == "phase":
        row = rows[0]
        if not (row["grad_err"] < 1e-10 and row["fd_hessian_err"] < 1e-6
                and complex(row["det"]) == -1):
            return f"phase data {row}"
    elif cmd == "recover":
        values = [r["sup_error"] for r in rows]
        if not all(oracles.recovery_curve_ok(values)):
            return f"recovery curve {values}"
    elif cmd == "pullback":
        if any(r["ratio"] > 0.75 for r in rows):
            return "pullback ratio above 0.75"
    elif cmd == "split":
        n = int(_opt(args, "--n"))
        for row in rows:
            total = oracles.football_density(n, row["m"], row["r"])
            if row["diagonal"] != row["m"] + 1 or abs(row["total"] - total) > 1e-10 * total:
                return f"split m={row['m']}: {row}"
    return None


def cli_op(index: int, args: list[str]) -> Op:
    key = " ".join(args)

    def run(ctx):
        from orbk import cli

        path = ctx.workdir / f"report_{index:02d}.json"
        sink = io.StringIO()
        tracing = ctx.tracer.span("cli") if ctx.tracer else contextlib.nullcontext()
        code = 0
        with tracing, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                cli.main.main(args=args + ["--out", str(path)], prog_name="orbk",
                              standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        data = path.read_bytes() if path.exists() else b""  # none on FAIL exits
        path.unlink(missing_ok=True)
        if ctx.tracer:
            ctx.tracer.counters["cli.report_bytes"] += len(data)
        return code, data, sink.getvalue()

    def check(result):
        code, data, output = result
        if code != 0:
            return f"exit code {code}: {output.strip()[-200:]}"
        report = json.loads(data)
        if not report["summary"]["pass"]:
            return f"report does not pass: {report['summary']}"
        return _check_report(args, report)

    return Op(key, run, check)


def report_digest(result) -> str:
    return hashlib.sha256(result[1]).hexdigest()


def cli_acceptance(seed: int) -> Workload:
    ops = [cli_op(i, args) for i, args in enumerate(acceptance_invocations())]
    random.Random(seed).shuffle(ops)
    return Workload("cli_acceptance", ops, [], cli_op(99, ["bcoef", "--n", "2"]),
                    digest=report_digest)


def max_degree_probe(seed: int) -> Workload:
    """The gram op at the declared MAX_DEGREE, a known failure; not timed
    by the benchmark because it spends ~2 minutes in a fresh process."""
    spec = GRAM_MODELS[0]
    probe = gram_op(spec, 10000, [(0.0, "u0"), (0.7, "u0")])
    return Workload("max_degree_probe", [probe], [spec],
                    gram_op(spec, 40, [(0.0, "u0")]))


WORKLOADS = {"gram_highdeg": gram_highdeg, "perturbed_sweep": perturbed_sweep,
             "cli_acceptance": cli_acceptance, "max_degree_probe": max_degree_probe}

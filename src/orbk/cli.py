"""Command-line front end.

Every subcommand is one check, declared once with `check(...)`: its options
as (flag, type, default), whether it reads a model (`--model/--n`), and its
degree rule.  The check itself is a plain function `(model, ms, **params) ->
(rows, summary)`; one `_run` reads the config file, the model and the
degrees, calls it inside the single error boundary, writes the report (json
or csv), prints a single PASS/FAIL line against its tolerance block, and
exits 0 iff the check passed.  Identical invocations produce byte-identical
reports: seeds are fixed, summation order is fixed, and json keys are sorted.

A json report has the shape `REPORT_SCHEMA`; `_emit` builds it that way and
the tests check every report they write against it, so nothing validates it
at run time.  A degree range `start:stop:step` includes its stop in either
direction.  Radii must be finite.  `bcoef` on a model with no singular point
fails on `model`.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import click
import numpy as np

from .asymptotics import (character_sum_bound, fit_decay_rate, fit_expansion,
                          lower_bound_scan, pair_with_test_function, recover_potential)
from .bergman import (density, football_density_closed_form,
                      football_offdiagonal_closed_form, metric_pullback_deviation)
from .errors import (ModelSpecError, NoiseFloorError, OrbkError, ParameterError,
                     UnsupportedModelError)
from .groups import MAX_DEGREE, GroupAction
from .index import b_coefficient, rrk_euler_characteristic
from .localmodel import ModelGrid, check_identities, default_suite, phase_critical_data
from .models import OrbifoldModel, build_football, build_model
from .sections import RadialBump, build_section_space

# The published shape of a json report.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "params", "rows", "summary"],
    "properties": {
        "command": {"type": "string"},
        "params": {"type": "object"},
        "rows": {"type": "array", "items": {"type": "object"}},
        "summary": {"type": "object", "required": ["pass"],
                    "properties": {"pass": {"type": "boolean"}}},
    },
}

MODEL_OPTIONS = (("--model", str, None), ("--n", int, None))
OUTPUT_OPTIONS = (("--out", str, None), ("--format", click.Choice(["json", "csv"]), "json"),
                  ("--config", str, None))
HELP = {"model": "model json, file path, or kind name", "n": "football quotient order",
        "m": "degree, or start:stop:step", "r": "radial chart coordinate |z|^2",
        "out": "report file path", "config": "json file whose entries override flags"}


@dataclass(frozen=True)
class Check:
    name: str
    options: tuple  # (flag, type, default) triples
    model: bool  # reads --model/--n
    degrees: str | None  # the degree rule applied to --m (see _degrees)
    compute: Callable  # (model, ms, **params) -> (rows, summary)

    def all_options(self) -> tuple:
        return (MODEL_OPTIONS if self.model else ()) + self.options


CHECKS: dict[str, Check] = {}


def check(name: str, *options, model: bool = True, degrees: str | None = None):
    """Register the decorated compute function as the check `name`."""

    def register(compute):
        CHECKS[name] = Check(name, options, model, degrees, compute)
        return compute

    return register


def _name(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _fail_field(field: str, message: str) -> None:
    click.echo(f"FAIL {field}: {message}", err=True)
    sys.exit(1)


def _load_model(spec: str | None, n: int | None) -> OrbifoldModel:
    """The model of --model/--n; any error in building it fails on `model`."""
    try:
        if spec is None:
            if n is None:
                raise ModelSpecError("no model specification given")
            return build_football(n)
        raw = spec.strip()
        if raw.startswith("{"):
            parsed = json.loads(raw)
        elif raw in ("football", "wpl", "cone"):
            parsed = {"kind": raw}
            if n is not None:
                parsed["n"] = n
        else:
            with open(raw) as fh:
                parsed = json.load(fh)
        if not isinstance(parsed, dict):
            raise ModelSpecError("a model spec is a json object")
        if parsed.get("kind") == "football" and "n" not in parsed:
            parsed["n"] = n if n is not None else 1
        return build_model(parsed)
    except (OSError, ValueError, OrbkError) as exc:
        _fail_field("model", str(exc))


def _degrees(model: OrbifoldModel, text: str, rule: str) -> list[int]:
    """The degrees of `m` or `start:stop:step` under a check's degree rule.

    A degree that is not a multiple of the bundle step is kept by `all`,
    fails the check under `exact`, is dropped by `drop` and replaced by the
    multiple below it by `down`; `drop` and `down` then keep positive degrees
    only, once each, in order.
    """
    step = model.bundle_step
    try:
        bounds = [int(p) for p in text.split(":")]
        if len(bounds) > 3:
            raise ValueError
        stop = bounds[min(len(bounds), 2) - 1]
        by = bounds[2] if len(bounds) == 3 else 1
        ms = range(bounds[0], stop + (1 if by > 0 else -1), by)  # the stop is included
    except ValueError:
        _fail_field("m", f"cannot parse range {text!r}")
    if len(ms) > MAX_DEGREE + 1:  # checked before the range is expanded
        _fail_field("m", f"{len(ms)} degrees in {text!r}, at most {MAX_DEGREE + 1}")
    if rule == "exact":
        for m in ms:
            if m % step:
                _fail_field("m", f"{m} is not a multiple of {step}")
    elif rule == "drop":
        ms = [m for m in ms if m % step == 0 and m > 0]
    elif rule == "down":
        ms = sorted({m - m % step for m in ms if m - m % step > 0})
    if not ms:
        positive = "positive " if rule in ("drop", "down") else ""
        _fail_field("m", f"no {positive}multiple of the bundle step {step} in {text!r}")
    return list(ms)


def _configured(chk: Check, params: dict, path: str | None) -> dict:
    """The flag values, overridden by the entries of a json config file; each
    entry is converted with its option's type."""
    if path is None:
        return params
    try:
        with open(path) as fh:
            overrides = json.load(fh)
    except (OSError, ValueError) as exc:
        _fail_field("config", str(exc))
    if not isinstance(overrides, dict):
        _fail_field("config", "a config file holds a json object")
    options = {_name(flag): (kind, default) for flag, kind, default in chk.all_options()}
    for key, value in overrides.items():
        if key not in options:
            _fail_field(key, "unknown config field")
        kind, default = options[key]
        if kind is int and isinstance(value, float) and not value.is_integer():
            _fail_field(key, f"{value!r} is not an integer")  # click's INT would truncate
        try:  # a click type passes None through
            params[key] = click.types.convert_type(kind)(value)
        except (click.BadParameter, TypeError) as exc:
            _fail_field(key, str(exc))
        if params[key] is None and default is not None:
            _fail_field(key, "a value is needed")
    return params


def _plain(value):
    """Coerce numpy scalars (and anything exotic) to plain json types."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    return str(value)


def _emit(command: str, params: dict, rows: list[dict], summary: dict,
          out: str | None, fmt: str) -> bool:
    """Write the report, print its PASS/FAIL line and return whether it passed;
    the report's `summary.pass` is that same value."""
    ok = bool(summary["pass"])
    report = _plain({"command": command, "params": params, "rows": rows,
                     "summary": {**summary, "pass": ok}})
    rows, summary = report["rows"], report["summary"]
    path = out or f"{command}_report.{fmt}"
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        keys = sorted({k for row in rows for k in row})
        lines = [",".join(repr(row.get(k, "")) for k in keys) for row in rows]
        text = "\n".join([",".join(keys)] + lines) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _fail_field("out", str(exc))
    detail = summary.get("detail", "")
    click.echo(f"{'PASS' if ok else 'FAIL'} {command}: {detail} [{path}]")
    return ok


def _run(chk: Check, out: str | None, format: str, config: str | None, **flags) -> None:
    """Run one check.  The error boundary: an operation the model does not
    support ends as `FAIL model: <message>`, any other library error or
    invalid value as `FAIL <field>: <message>` with the field the error names
    (`input` when it names none); both exit 1."""
    params = _configured(chk, flags, config)
    model = _load_model(params["model"], params["n"]) if chk.model else None
    ms = _degrees(model, str(params["m"]), chk.degrees) if chk.degrees else None
    args = {k: v for k, v in params.items() if k not in ("model", "n", "m")}
    try:
        rows, summary = chk.compute(model, ms, **args)
    except UnsupportedModelError as exc:
        _fail_field("model", str(exc))
    except (OrbkError, ValueError) as exc:
        _fail_field(getattr(exc, "field", None) or "input", str(exc))
    if model is not None:  # both degree conventions: m and N = m / bundle_step
        step = model.bundle_step
        for row in rows:
            if "m" in row:
                row["N"] = row["m"] / step if row["m"] % step else row["m"] // step
    sys.exit(0 if _emit(chk.name, params, rows, summary, out, format) else 1)


def _chart_point(r: float, field: str = "r") -> complex:
    """The point of chart u0 with radial coordinate r = |z|^2 (the option `field`)."""
    if not 0 <= r < math.inf:
        raise ParameterError(f"{field} must be finite and non-negative, not {r}",
                             field=field)
    return complex(math.sqrt(r))


@check("density", ("--m", str, "10"), ("--r", float, 0.7), ("--tol", float, 1e-9),
       degrees="exact")
def density_check(model, ms, r, tol):
    """Bergman density at a chart point, closed form vs. Gram path."""
    nq, z = model.football_order(), _chart_point(r)
    rows = []
    for m in ms:
        closed = football_density_closed_form(nq, m, r)
        gram = density(build_section_space(model, m), z)
        rows.append({"m": m, "r": r, "closed_form": closed, "gram_path": gram,
                     "rel_err": abs(gram - closed) / abs(closed)})
    ok = all(row["rel_err"] < tol for row in rows)
    detail = f"{rows[-1]['closed_form']:.6f} (rel err {rows[-1]['rel_err']:.2e})"
    return rows, {"pass": ok, "detail": detail}


@check("split", ("--m", str, "10"), ("--r", float, 0.7), ("--tol", float, 1e-10),
       degrees="exact")
def split_check(model, ms, r, tol):
    """Gram density against m+1 plus the off-diagonal closed form."""
    nq, z = model.football_order(), _chart_point(r)
    rows = []
    for m in ms:
        diag, off = float(m + 1), football_offdiagonal_closed_form(nq, m, r)
        total = density(build_section_space(model, m), z)
        rows.append({"m": m, "r": r, "diagonal": diag, "offdiagonal": off, "total": total,
                     "reassembly_err": abs(diag + off - total) / max(abs(total), 1.0)})
    ok = all(row["reassembly_err"] < tol for row in rows)
    return rows, {"pass": ok, "detail": f"reassembly err {rows[-1]['reassembly_err']:.2e}"}


@check("fit", ("--m", str, "10:200:10"), ("--r", float, 1.0),
       ("--tol-a0", float, 1e-6), ("--tol-a1", float, 1e-3), degrees="drop")
def fit_check(model, ms, r, tol_a0, tol_a1):
    """Expansion-coefficient fit of rho_m against (m, 1)."""
    nq = model.football_order()
    _chart_point(r)  # r is a radial coordinate
    rhos = [football_density_closed_form(nq, m, r) for m in ms]
    fit = fit_expansion(ms, rhos, dim=model.dim, terms=2, r_proxy=r)
    a0, a1 = fit.coefficients
    return [{"m": m, "rho": rho} for m, rho in zip(ms, rhos)], {
        "pass": abs(a0 - 1) < tol_a0 and abs(a1 - 1) < tol_a1, "a0_in_m": a0, "a1_in_m": a1,
        # same density read in the power N of the n-th tensor generator
        "a0_in_N": a0 * nq, "a1_in_N": a1, "condition": fit.condition,
        "detail": f"a0={a0:.8f} a1={a1:.6f}"}


@check("decay", ("--m", str, "10:200:2"), ("--r", float, 0.5),
       ("--r2-min", float, 0.99), degrees="drop")
def decay_check(model, ms, r, r2_min):
    """Exponential tail-decay fit of |rho_m - (m+1)| away from the cone point."""
    nq = model.football_order()
    if _chart_point(r) == 0:
        raise ParameterError("r must be positive: at the cone point r = 0 the residual "
                             "grows like m+1", field="r")
    rhos = [football_density_closed_form(nq, m, r) for m in ms]
    try:
        fit = fit_decay_rate(ms, rhos, r)
    except NoiseFloorError as exc:
        return ([{"m": m, "rho": rho} for m, rho in zip(ms, rhos)],
                {"pass": True, "outcome": "noise_floor",
                 "detail": f"noise floor ({exc})"})
    return [{"m": m, "log_residual": lr} for m, lr in zip(fit.ms, fit.log_residuals)], {
        "pass": fit.r_squared > r2_min and fit.delta_per_r > 0, "outcome": "decay",
        "slope": fit.slope, "r_squared": fit.r_squared, "delta_per_r": fit.delta_per_r,
        "delta_per_r2": fit.delta_per_r2,
        "detail": f"R2={fit.r_squared:.4f} delta={fit.delta_per_r:.4f}"}


@check("pairing", ("--m", str, "100:400:50"), ("--amplitude", float, 1.0),
       ("--width", float, 2.0), ("--tol", float, 0.02), degrees="down")
def pairing_check(model, ms, amplitude, width, tol):
    """Pairing of the singular density part with a radial test function."""
    if amplitude == 0:
        raise ParameterError("a zero test function pairs to 0, no relative error",
                             field="amplitude")
    result = pair_with_test_function(model, ms, RadialBump(amplitude, 0.0, width))
    rel = abs(result.limit - result.reference) / abs(result.reference)
    rows = [{"m": m, "pairing": v, "error": e}
            for m, v, e in zip(result.ms, result.values, result.errors)]
    return rows, {"pass": rel < tol, "limit": result.limit, "reference": result.reference,
                  "rel_err": rel,
                  "detail": f"limit={result.limit:.6f} ref={result.reference:.6f}"}


@check("bcoef")
def bcoef_check(model, ms):
    """Delta coefficient b at each singular point, with exact certificate."""
    if not model.singular_points:
        raise UnsupportedModelError(f"a smooth {model.kind} has no singular point")
    rows, ok = [], True
    for point in model.singular_points:
        b = b_coefficient(point)
        exact = str(b.exact) if b.exact is not None else ""
        ok = (ok and b.imag_residual < 1e-12
              and (b.exact is None or abs(b.value - float(b.exact)) < 1e-12))
        rows.append({"chart": point.chart_id, "b": b.value, "exact": exact,
                     "imag_residual": b.imag_residual})
        print(f"  {point.chart_id}: {b.value:.6f}" + (f" (exact {exact})" if exact else ""))
    detail = " ".join(f"{r['chart']}={r['b']:.6f}" for r in rows)
    return rows, {"pass": ok, "detail": detail}


@check("rrk", ("--m", str, "0:30"), degrees="all")
def rrk_check(model, ms):
    """Index formula vs. exact section count at every degree."""
    rows = [{"m": rep.power, "total": str(rep.total), "oracle": rep.dimension_oracle,
             "match": rep.matches_oracle} for rep in rrk_euler_characteristic(model, ms)]
    return rows, {"pass": all(row["match"] for row in rows),
                  "detail": f"total {rows[-1]['total']}, oracle {rows[-1]['oracle']}"}


@check("charsum", ("--cases", int, 100), ("--seed", int, 0), ("--tol", float, 1e-10),
       model=False)
def charsum_check(model, ms, cases, seed, tol):
    """Orbit sum vs. invariant-monomial sum on randomized group actions."""
    if cases < 1:
        raise ParameterError(f"{cases} cases, at least 1 is needed", field="cases")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, not {seed}", field="seed")
    rng = np.random.default_rng(seed)
    rows = []
    for case in range(cases):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(2, 13))
        weights = [int(w) for w in rng.integers(0, order, size=dim)]
        action = GroupAction.cyclic(order, weights)
        z = [complex(a, b) for a, b in rng.normal(0, 0.7, size=(dim, 2))]
        m = int(rng.integers(1, 51))
        orbit, invariant = character_sum_bound(action, z, m)
        rows.append({"case": case, "dim": dim, "order": order, "m": m,
                     "orbit_sum": orbit, "invariant_sum": invariant,
                     "rel_err": abs(orbit - invariant) / max(abs(invariant), 1e-30),
                     "positive": orbit > 0 and invariant > 0})
    ok = all(row["rel_err"] < tol and row["positive"] for row in rows)
    worst = max(row["rel_err"] for row in rows)
    return rows, {"pass": ok, "detail": f"{cases} cases, worst rel err {worst:.2e}"}


@check("recover", ("--m", str, "20:100:20"), ("--amplitude", float, 0.1),
       ("--center", float, 1.0), ("--width", float, 3.0), ("--tol", float, 0.02),
       degrees="down")
def recover_check(model, ms, amplitude, center, width, tol):
    """Sup-norm recovery curve of a perturbing potential from densities."""
    curve = recover_potential(model, RadialBump(amplitude, center, width), ms)
    values = [curve[m] for m in ms]
    monotone = all(b <= a * (1 + 1e-9) for a, b in zip(values, values[1:]))
    return ([{"m": m, "sup_error": curve[m]} for m in ms],
            {"pass": monotone and values[-1] < tol, "final": values[-1],
             "monotone": monotone, "detail": f"final sup error {values[-1]:.4f}"})


@check("lowerbound", ("--m", str, "10:200:10"), degrees="drop")
def lowerbound_check(model, ms):
    """Uniform positive lower bound of rho_m / (m+1)^dim over a chart grid."""
    mins, overall = lower_bound_scan(model, ms)
    return ([{"m": m, "min_ratio": mins[m]} for m in ms],
            {"pass": overall > 0, "inf": overall,
             "detail": f"inf rho/(m+1)^dim = {overall:.6f}"})


@check("pullback", ("--m", int, 10), ("--r-min", float, 0.5), ("--r-max", float, 2.0),
       ("--points", int, 8), ("--ratio-max", float, 0.75), degrees="exact")
def pullback_check(model, ms, r_min, r_max, points, ratio_max):
    """Decay of the metric-pullback deviation when the degree doubles."""
    if points < 1:
        raise ParameterError(f"{points} points, at least 1 is needed", field="points")
    _chart_point(r_min, "r_min")  # both ends are radial coordinates
    _chart_point(r_max, "r_max")
    zs = [_chart_point(r) for r in np.linspace(r_min, r_max, points)]
    (m,) = ms
    dev1 = metric_pullback_deviation(build_section_space(model, m), zs)
    dev2 = metric_pullback_deviation(build_section_space(model, 2 * m), zs)
    rows = [{"r": r1, "deviation_m": d1, "deviation_2m": d2,
             "ratio": d2 / d1 if d1 > 0 else 0.0}
            for (r1, d1), (_, d2) in zip(dev1, dev2)]
    ok = all(row["ratio"] <= ratio_max for row in rows)
    worst = max(row["ratio"] for row in rows)
    return rows, {"pass": ok, "detail": f"worst ratio {worst:.3f}"}


@check("localmodel", ("--x-points", int, 512), ("--y-points", int, 256),
       ("--tol", float, 1e-6), model=False)
def localmodel_check(model, ms, x_points, y_points, tol):
    """Operator identities D0 R = 0 and R* R = I on the band-limited suite."""
    grid = ModelGrid(x_points=x_points, y_points=y_points)
    report = check_identities(grid, default_suite(grid))
    if report.checked == 0:
        raise ParameterError(f"no test function has a positive frequency that {y_points} "
                             "y points resolve; nothing was checked", field="y_points")
    rows = []
    for i, (d0, rr, outside) in enumerate(zip(report.d0_residuals, report.rstar_r_residuals,
                                              report.outside_cone_fractions)):
        rows.append({"function": i, "d0_residual": d0, "rstar_r_residual": rr,
                     "outside_cone": outside})
        print(f"  f{i}: D0R {d0:.3e}  R*R-I {rr:.3e}")
    ok = report.max_d0 < tol and report.max_rstar_r < tol
    detail = f"max D0R {report.max_d0:.3e}, max R*R-I {report.max_rstar_r:.3e}"
    return rows, {"pass": ok, "detail": detail}


@check("phase", ("--h", float, 1e-3), ("--tol-grad", float, 1e-10),
       ("--tol-hess", float, 1e-6), model=False)
def phase_check(model, ms, h, tol_grad, tol_hess):
    """Critical-point data of the reduced phase at (t, theta) = (1, 0)."""
    data = phase_critical_data(h=h)
    grad_err = float(np.max(np.abs(data.gradient + data.fd_gradient)))  # nan wins
    hess_err = float(np.max(np.abs(np.subtract(data.fd_hessian, ((0.0, 1.0), (1.0, 1j))))))
    det_err = abs(data.determinant + 1.0)
    ok = grad_err < tol_grad and hess_err < tol_hess and det_err < tol_hess
    rows = [{"grad_err": grad_err, "fd_hessian_err": hess_err, "det": str(data.determinant)}]
    return rows, {"pass": ok, "detail": f"grad {grad_err:.2e}, hess fd {hess_err:.2e}, "
                                        f"det {data.determinant}"}


def _command(chk: Check) -> click.Command:
    params = [click.Option([flag], type=kind, default=default, help=HELP.get(_name(flag)))
              for flag, kind, default in chk.all_options() + OUTPUT_OPTIONS]
    return click.Command(chk.name, callback=functools.partial(_run, chk),
                         params=params, help=chk.compute.__doc__)


main = click.Group(commands=[_command(chk) for chk in CHECKS.values()],
                   help="Orbifold Bergman kernel verification toolkit.")


if __name__ == "__main__":
    main()

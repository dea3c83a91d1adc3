"""Command-line front end.

Every subcommand computes one report, writes it to disk (json or csv),
prints a single PASS/FAIL line against its tolerance block, and exits 0
iff the check passed.  Identical invocations produce byte-identical
reports: seeds are fixed, summation order is fixed, and json keys are
sorted.
"""

from __future__ import annotations

import json
import math
import sys

import click
import jsonschema
import numpy as np

from .asymptotics import (
    character_sum_bound,
    fit_decay_rate,
    fit_expansion,
    lower_bound_scan,
    pair_with_test_function,
    recover_potential,
)
from .bergman import (
    density,
    density_sweep,
    football_density_closed_form,
    metric_pullback_deviation,
)
from .errors import NoiseFloorError, OrbkError, UnsupportedModelError
from .groups import GroupAction
from .index import b_coefficient, rrk_euler_characteristic
from .localmodel import ModelGrid, check_identities, default_suite, phase_critical_data
from .models import OrbifoldModel, build_football, build_model
from .sections import RadialBump, build_section_space

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "params", "rows", "summary"],
    "properties": {
        "command": {"type": "string"},
        "params": {"type": "object"},
        "rows": {"type": "array", "items": {"type": "object"}},
        "summary": {
            "type": "object",
            "required": ["pass"],
            "properties": {"pass": {"type": "boolean"}},
        },
    },
}


def _fail_field(field: str, message: str) -> None:
    click.echo(f"FAIL {field}: {message}", err=True)
    sys.exit(1)


def _load_model(spec: str | None, n: int | None) -> OrbifoldModel:
    if spec is None:
        if n is None:
            _fail_field("model", "no model specification given")
        return build_football(n)
    raw = spec.strip()
    try:
        if raw.startswith("{"):
            parsed = json.loads(raw)
        elif raw in ("football", "wpl", "cone"):
            parsed = {"kind": raw}
            if n is not None:
                parsed["n"] = n
        else:
            with open(raw) as fh:
                parsed = json.load(fh)
        if parsed.get("kind") == "football" and "n" not in parsed:
            parsed["n"] = n if n is not None else 1
        return build_model(parsed)
    except (OSError, ValueError, OrbkError) as exc:
        _fail_field("model", str(exc))


def _parse_mrange(text: str) -> list[int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [int(parts[0])]
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        ms = list(range(start, stop + 1, step))
    except ValueError:
        _fail_field("m", f"cannot parse range {text!r}")
    if not ms:
        _fail_field("m", f"empty range {text!r}")
    return ms


def _degrees(model: OrbifoldModel, text: str, round_down: bool = False) -> list[int]:
    """The degrees of a range that are multiples of the bundle step.

    Other degrees are dropped, or with round_down replaced by the multiple
    below them; then only positive degrees are kept, once each, in order.
    """
    step = model.bundle_step
    ms = _parse_mrange(text)
    if round_down:
        ms = sorted({m - m % step for m in ms if m - m % step > 0})
    else:
        ms = [m for m in ms if m % step == 0]
    if not ms:
        _fail_field("m", f"no {'positive ' if round_down else ''}multiple of "
                         f"the bundle step {step} in {text!r}")
    return ms


def _apply_config(config_path: str | None, params: dict) -> dict:
    """Load a json config file and let its entries override the flag values."""
    if config_path is None:
        return params
    try:
        with open(config_path) as fh:
            overrides = json.load(fh)
    except (OSError, ValueError) as exc:
        _fail_field("config", str(exc))
    for key, value in overrides.items():
        if key not in params:
            _fail_field(key, "unknown config field")
        params[key] = value
    return params


def _rows_with_power(model: OrbifoldModel, rows: list[dict]) -> list[dict]:
    """Attach both degree conventions (m and N = m / bundle_step) to rows."""
    step = model.bundle_step
    for row in rows:
        if "m" in row:
            row["N"] = row["m"] / step if row["m"] % step else row["m"] // step
    return rows


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
          out: str | None, fmt: str, gnuplot: bool) -> bool:
    report = _plain({"command": command, "params": params, "rows": rows,
                     "summary": summary})
    rows, summary = report["rows"], report["summary"]
    jsonschema.validate(report, REPORT_SCHEMA)
    path = out or f"{command}_report.{fmt}"
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    else:
        keys = sorted({k for row in rows for k in row})
        lines = [",".join(keys)]
        for row in rows:
            lines.append(",".join(repr(row.get(k, "")) for k in keys))
        text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    if gnuplot and fmt == "csv" and rows:
        keys = sorted({k for row in rows for k in row})
        with open(path + ".gp", "w") as fh:
            fh.write(
                "set datafile separator ','\nset key autotitle columnhead\n"
                f"plot '{path}' using 1:2 with linespoints\n"
            )
    ok = bool(summary["pass"])
    detail = summary.get("detail", "")
    click.echo(f"{'PASS' if ok else 'FAIL'} {command}: {detail} [{path}]")
    return ok


def _finish(ok: bool) -> None:
    sys.exit(0 if ok else 1)


def model_option(f):
    f = click.option("--model", "model_spec", default=None,
                     help="model json, file path, or kind name")(f)
    f = click.option("--n", type=int, default=None,
                     help="football quotient order")(f)
    return f


def output_options(f):
    f = click.option("--out", default=None, help="report file path")(f)
    f = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                     default="json")(f)
    f = click.option("--config", "config_path", default=None,
                     help="json file whose entries override flags")(f)
    f = click.option("--gnuplot", is_flag=True, default=False,
                     help="emit a gnuplot script next to a csv report")(f)
    return f


class _Checks(click.Group):
    """The subcommands, with one error boundary: an operation the model does
    not support ends as `FAIL model: <message>`, and any other library error
    or invalid value as `FAIL <field>: <message>` with the field the error
    names (`input` when it names none); both exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except UnsupportedModelError as exc:
            _fail_field("model", str(exc))
        except (OrbkError, ValueError) as exc:
            _fail_field(getattr(exc, "field", None) or "input", str(exc))


@click.group(cls=_Checks)
def main():
    """Orbifold Bergman kernel verification toolkit."""


@main.command("density")
@model_option
@click.option("--m", "mrange", default="10", help="degree (or start:stop:step)")
@click.option("--r", type=float, default=0.7, help="radial chart coordinate")
@click.option("--tol", type=float, default=1e-9)
@output_options
def cmd_density(model_spec, n, mrange, r, tol, out, fmt, config_path, gnuplot):
    """Bergman density at a chart point, closed form vs. Gram path."""
    params = _apply_config(config_path, {
        "model": model_spec, "n": n, "m": mrange, "r": r, "tol": tol})
    model = _load_model(params["model"], params["n"])
    nq = model.football_order()
    rows, ok = [], True
    for m in _parse_mrange(str(params["m"])):
        if m % model.bundle_step:
            _fail_field("m", f"{m} is not a multiple of {model.bundle_step}")
        closed = football_density_closed_form(nq, m, params["r"])
        space = build_section_space(model, m)
        gram = density(space, complex(math.sqrt(params["r"])))
        rel = abs(gram - closed) / abs(closed)
        ok = ok and rel < params["tol"]
        rows.append({"m": m, "r": params["r"], "closed_form": closed,
                     "gram_path": gram, "rel_err": rel})
    rows = _rows_with_power(model, rows)
    detail = f"{rows[-1]['closed_form']:.6f} (rel err {rows[-1]['rel_err']:.2e})"
    _finish(_emit("density", params, rows,
                  {"pass": ok, "detail": detail}, out, fmt, gnuplot))


@main.command("split")
@model_option
@click.option("--m", "mrange", default="10")
@click.option("--r", type=float, default=0.7)
@click.option("--tol", type=float, default=1e-10)
@output_options
def cmd_split(model_spec, n, mrange, r, tol, out, fmt, config_path, gnuplot):
    """Diagonal / off-diagonal split of the density."""
    params = _apply_config(config_path, {
        "model": model_spec, "n": n, "m": mrange, "r": r, "tol": tol})
    model = _load_model(params["model"], params["n"])
    rows, ok = [], True
    for m in _parse_mrange(str(params["m"])):
        sample = density_sweep(model, m, [complex(math.sqrt(params["r"]))])
        diag, off = sample.split[0]
        total = sample.values[0]
        resid = abs(diag + off - total) / max(abs(total), 1.0)
        ok = ok and resid < params["tol"]
        rows.append({"m": m, "r": params["r"], "diagonal": diag,
                     "offdiagonal": off, "total": total,
                     "reassembly_err": resid})
    rows = _rows_with_power(model, rows)
    _finish(_emit("split", params, rows,
                  {"pass": ok, "detail": f"reassembly err {rows[-1]['reassembly_err']:.2e}"},
                  out, fmt, gnuplot))


@main.command("fit")
@model_option
@click.option("--m", "mrange", default="10:200:10")
@click.option("--r", type=float, default=1.0)
@click.option("--tol-a0", type=float, default=1e-6)
@click.option("--tol-a1", type=float, default=1e-3)
@output_options
def cmd_fit(model_spec, n, mrange, r, tol_a0, tol_a1, out, fmt, config_path,
            gnuplot):
    """Expansion-coefficient fit of rho_m against (m, 1)."""
    params = _apply_config(config_path, {
        "model": model_spec, "n": n, "m": mrange, "r": r,
        "tol_a0": tol_a0, "tol_a1": tol_a1})
    model = _load_model(params["model"], params["n"])
    nq = model.football_order()
    ms = _degrees(model, str(params["m"]))
    rhos = [football_density_closed_form(nq, m, params["r"]) for m in ms]
    fit = fit_expansion(ms, rhos, dim=model.dim, terms=2, r_proxy=params["r"])
    a0, a1 = fit.coefficients
    ok = abs(a0 - 1) < params["tol_a0"] and abs(a1 - 1) < params["tol_a1"]
    rows = _rows_with_power(model, [
        {"m": m, "rho": rho} for m, rho in zip(ms, rhos)])
    summary = {
        "pass": ok,
        "a0_in_m": a0, "a1_in_m": a1,
        # same density read in the power N of the n-th tensor generator
        "a0_in_N": a0 * nq, "a1_in_N": a1,
        "condition": fit.condition,
        "detail": f"a0={a0:.8f} a1={a1:.6f}",
    }
    _finish(_emit("fit", params, rows, summary, out, fmt, gnuplot))


@main.command("decay")
@model_option
@click.option("--m", "mrange", default="10:200:2")
@click.option("--r", type=float, default=0.5)
@click.option("--r2-min", type=float, default=0.99)
@output_options
def cmd_decay(model_spec, n, mrange, r, r2_min, out, fmt, config_path, gnuplot):
    """Exponential tail-decay fit of |rho_m - (m+1)| away from the cone point."""
    params = _apply_config(config_path, {
        "model": model_spec, "n": n, "m": mrange, "r": r, "r2_min": r2_min})
    model = _load_model(params["model"], params["n"])
    nq = model.football_order()
    ms = _degrees(model, str(params["m"]))
    rhos = [football_density_closed_form(nq, m, params["r"]) for m in ms]
    try:
        fit = fit_decay_rate(ms, rhos, params["r"])
    except NoiseFloorError as exc:
        rows = _rows_with_power(model, [
            {"m": m, "rho": rho} for m, rho in zip(ms, rhos)])
        _finish(_emit("decay", params, rows,
                      {"pass": True, "outcome": "noise_floor",
                       "detail": f"noise floor ({exc})"},
                      out, fmt, gnuplot))
    ok = fit.r_squared > params["r2_min"] and fit.delta_per_r > 0
    rows = _rows_with_power(model, [
        {"m": m, "log_residual": lr}
        for m, lr in zip(fit.ms, fit.log_residuals)])
    summary = {"pass": ok, "outcome": "decay", "slope": fit.slope,
               "r_squared": fit.r_squared, "delta_per_r": fit.delta_per_r,
               "delta_per_r2": fit.delta_per_r2,
               "detail": f"R2={fit.r_squared:.4f} delta={fit.delta_per_r:.4f}"}
    _finish(_emit("decay", params, rows, summary, out, fmt, gnuplot))


@main.command("pairing")
@model_option
@click.option("--m", "mrange", default="100:400:50")
@click.option("--amplitude", type=float, default=1.0)
@click.option("--width", type=float, default=2.0)
@click.option("--tol", type=float, default=0.02)
@output_options
def cmd_pairing(model_spec, n, mrange, amplitude, width, tol, out, fmt,
                config_path, gnuplot):
    """Pairing of the singular density part with a radial test function."""
    params = _apply_config(config_path, {
        "model": model_spec, "n": n, "m": mrange, "amplitude": amplitude,
        "width": width, "tol": tol})
    model = _load_model(params["model"], params["n"])
    ms = _degrees(model, str(params["m"]), round_down=True)
    phi = RadialBump(params["amplitude"], 0.0, params["width"])
    result = pair_with_test_function(model, ms, phi)
    rel = abs(result.limit - result.reference) / abs(result.reference)
    ok = rel < params["tol"]
    rows = _rows_with_power(model, [
        {"m": m, "pairing": v, "error": e}
        for m, v, e in zip(result.ms, result.values, result.errors)])
    summary = {"pass": ok, "limit": result.limit,
               "reference": result.reference, "rel_err": rel,
               "detail": f"limit={result.limit:.6f} ref={result.reference:.6f}"}
    _finish(_emit("pairing", params, rows, summary, out, fmt, gnuplot))


@main.command("bcoef")
@model_option
@output_options
def cmd_bcoef(model_spec, n, out, fmt, config_path, gnuplot):
    """Delta coefficient b at each singular point, with exact certificate."""
    params = _apply_config(config_path, {"model": model_spec, "n": n})
    model = _load_model(params["model"], params["n"])
    rows, ok = [], True
    for point in model.singular_points:
        b = b_coefficient(point)
        exact = str(b.exact) if b.exact is not None else ""
        if b.exact is not None:
            ok = ok and abs(b.value - float(b.exact)) < 1e-12
        ok = ok and b.imag_residual < 1e-12
        rows.append({"chart": point.chart_id, "b": b.value, "exact": exact,
                     "imag_residual": b.imag_residual})
        click.echo(f"  {point.chart_id}: {b.value:.6f}"
                   + (f" (exact {exact})" if exact else ""))
    detail = " ".join(f"{r['chart']}={r['b']:.6f}" for r in rows)
    _finish(_emit("bcoef", params, rows, {"pass": ok, "detail": detail},
                  out, fmt, gnuplot))


@main.command("rrk")
@model_option
@click.option("--m", "mrange", default="0:30")
@output_options
def cmd_rrk(model_spec, n, mrange, out, fmt, config_path, gnuplot):
    """Index formula vs. exact section count, degree by degree."""
    params = _apply_config(config_path, {"model": model_spec, "n": n,
                                         "m": mrange})
    model = _load_model(params["model"], params["n"])
    rows, ok = [], True
    for m in _parse_mrange(str(params["m"])):
        report = rrk_euler_characteristic(model, m)
        ok = ok and report.matches_oracle
        rows.append({"m": m, "total": str(report.total),
                     "oracle": report.dimension_oracle,
                     "match": report.matches_oracle})
    rows = _rows_with_power(model, rows)
    last = rows[-1]
    _finish(_emit("rrk", params, rows,
                  {"pass": ok,
                   "detail": f"total {last['total']}, oracle {last['oracle']}"},
                  out, fmt, gnuplot))


@main.command("charsum")
@click.option("--cases", type=int, default=100)
@click.option("--seed", type=int, default=0)
@click.option("--tol", type=float, default=1e-10)
@output_options
def cmd_charsum(cases, seed, tol, out, fmt, config_path, gnuplot):
    """Orbit sum vs. invariant-monomial sum on randomized group actions."""
    params = _apply_config(config_path, {"cases": cases, "seed": seed,
                                         "tol": tol})
    if params["cases"] < 1:
        _fail_field("cases", f"{params['cases']} cases, at least 1 is needed")
    rng = np.random.default_rng(params["seed"])
    rows, ok = [], True
    for case in range(params["cases"]):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(2, 13))
        weights = [int(w) for w in rng.integers(0, order, size=dim)]
        action = GroupAction.cyclic(order, weights)
        z = [complex(a, b) for a, b in rng.normal(0, 0.7, size=(dim, 2))]
        m = int(rng.integers(1, 51))
        orbit, invariant = character_sum_bound(action, z, m)
        rel = abs(orbit - invariant) / max(abs(invariant), 1e-30)
        positive = orbit > 0 and invariant > 0
        ok = ok and rel < params["tol"] and positive
        rows.append({"case": case, "dim": dim, "order": order, "m": m,
                     "orbit_sum": orbit, "invariant_sum": invariant,
                     "rel_err": rel, "positive": positive})
    worst = max(r["rel_err"] for r in rows)
    _finish(_emit("charsum", params, rows,
                  {"pass": ok, "detail": f"{len(rows)} cases, worst rel err {worst:.2e}"},
                  out, fmt, gnuplot))


@main.command("recover")
@model_option
@click.option("--m", "mrange", default="20:100:20")
@click.option("--amplitude", type=float, default=0.1)
@click.option("--center", type=float, default=1.0)
@click.option("--width", type=float, default=3.0)
@click.option("--tol", type=float, default=0.02)
@output_options
def cmd_recover(model_spec, n, mrange, amplitude, center, width, tol, out,
                fmt, config_path, gnuplot):
    """Sup-norm recovery curve of a perturbing potential from densities."""
    params = _apply_config(config_path, {
        "model": model_spec, "n": n, "m": mrange, "amplitude": amplitude,
        "center": center, "width": width, "tol": tol})
    model = _load_model(params["model"], params["n"])
    ms = _degrees(model, str(params["m"]), round_down=True)
    phi = RadialBump(params["amplitude"], params["center"], params["width"])
    curve = recover_potential(model, phi, ms)
    values = [curve[m] for m in ms]
    monotone = all(b <= a * (1 + 1e-9) for a, b in zip(values, values[1:]))
    ok = monotone and values[-1] < params["tol"]
    rows = _rows_with_power(model, [
        {"m": m, "sup_error": curve[m]} for m in ms])
    _finish(_emit("recover", params, rows,
                  {"pass": ok, "final": values[-1], "monotone": monotone,
                   "detail": f"final sup error {values[-1]:.4f}"},
                  out, fmt, gnuplot))


@main.command("lowerbound")
@model_option
@click.option("--m", "mrange", default="10:200:10")
@output_options
def cmd_lowerbound(model_spec, n, mrange, out, fmt, config_path, gnuplot):
    """Uniform positive lower bound of rho_m / (m+1)^dim over a chart grid."""
    params = _apply_config(config_path, {"model": model_spec, "n": n,
                                         "m": mrange})
    model = _load_model(params["model"], params["n"])
    ms = _degrees(model, str(params["m"]))
    mins, overall = lower_bound_scan(model, ms)
    ok = overall > 0
    rows = _rows_with_power(model, [
        {"m": m, "min_ratio": mins[m]} for m in ms])
    _finish(_emit("lowerbound", params, rows,
                  {"pass": ok, "inf": overall,
                   "detail": f"inf rho/(m+1)^dim = {overall:.6f}"},
                  out, fmt, gnuplot))


@main.command("pullback")
@model_option
@click.option("--m", type=int, default=10)
@click.option("--r-min", type=float, default=0.5)
@click.option("--r-max", type=float, default=2.0)
@click.option("--points", type=int, default=8)
@click.option("--ratio-max", type=float, default=0.75)
@output_options
def cmd_pullback(model_spec, n, m, r_min, r_max, points, ratio_max, out, fmt,
                 config_path, gnuplot):
    """Decay of the metric-pullback deviation when the degree doubles."""
    params = _apply_config(config_path, {
        "model": model_spec, "n": n, "m": m, "r_min": r_min, "r_max": r_max,
        "points": points, "ratio_max": ratio_max})
    model = _load_model(params["model"], params["n"])
    step = model.bundle_step
    if params["m"] % step:
        _fail_field("m", f"{params['m']} is not a multiple of {step}")
    zs = [complex(math.sqrt(r)) for r in
          np.linspace(params["r_min"], params["r_max"], params["points"])]
    rows = []
    ok = True
    space1 = build_section_space(model, params["m"])
    space2 = build_section_space(model, 2 * params["m"])
    dev1 = metric_pullback_deviation(space1, zs)
    dev2 = metric_pullback_deviation(space2, zs)
    for (r1, d1), (_, d2) in zip(dev1, dev2):
        ratio = d2 / d1 if d1 > 0 else 0.0
        ok = ok and ratio <= params["ratio_max"]
        rows.append({"r": r1, "deviation_m": d1, "deviation_2m": d2,
                     "ratio": ratio})
    worst = max(r["ratio"] for r in rows)
    _finish(_emit("pullback", params, rows,
                  {"pass": ok, "detail": f"worst ratio {worst:.3f}"},
                  out, fmt, gnuplot))


@main.command("localmodel")
@click.option("--x-points", type=int, default=512)
@click.option("--y-points", type=int, default=256)
@click.option("--tol", type=float, default=1e-6)
@output_options
def cmd_localmodel(x_points, y_points, tol, out, fmt, config_path, gnuplot):
    """Operator identities D0 R = 0 and R* R = I on the band-limited suite."""
    params = _apply_config(config_path, {
        "x_points": x_points, "y_points": y_points, "tol": tol})
    grid = ModelGrid(x_points=params["x_points"], y_points=params["y_points"])
    suite = default_suite(grid)
    report = check_identities(grid, suite)
    ok = report.max_d0 < params["tol"] and report.max_rstar_r < params["tol"]
    rows = []
    for i, (d0, rr, outside) in enumerate(zip(
            report.d0_residuals, report.rstar_r_residuals,
            report.outside_cone_fractions)):
        rows.append({"function": i, "d0_residual": d0, "rstar_r_residual": rr,
                     "outside_cone": outside})
        click.echo(f"  f{i}: D0R {d0:.3e}  R*R-I {rr:.3e}")
    detail = f"max D0R {report.max_d0:.3e}, max R*R-I {report.max_rstar_r:.3e}"
    _finish(_emit("localmodel", params, rows, {"pass": ok, "detail": detail},
                  out, fmt, gnuplot))


@main.command("phase")
@click.option("--h", type=float, default=1e-3)
@click.option("--tol-grad", type=float, default=1e-10)
@click.option("--tol-hess", type=float, default=1e-6)
@output_options
def cmd_phase(h, tol_grad, tol_hess, out, fmt, config_path, gnuplot):
    """Critical-point data of the reduced phase at (t, theta) = (1, 0)."""
    params = _apply_config(config_path, {"h": h, "tol_grad": tol_grad,
                                         "tol_hess": tol_hess})
    data = phase_critical_data(h=params["h"])
    grad_err = max(abs(g) for g in data.gradient + data.fd_gradient)
    hess_ref = ((0.0, 1.0), (1.0, 1j))
    hess_err = max(abs(data.fd_hessian[i][j] - hess_ref[i][j])
                   for i in range(2) for j in range(2))
    det_err = abs(data.determinant + 1.0)
    ok = (grad_err < params["tol_grad"] and hess_err < params["tol_hess"]
          and det_err < params["tol_hess"])
    rows = [{"grad_err": grad_err, "fd_hessian_err": hess_err,
             "det": str(data.determinant)}]
    _finish(_emit("phase", params, rows,
                  {"pass": ok,
                   "detail": f"grad {grad_err:.2e}, hess fd {hess_err:.2e}, det {data.determinant}"},
                  out, fmt, gnuplot))


if __name__ == "__main__":
    main()

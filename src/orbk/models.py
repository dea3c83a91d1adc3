"""Catalog of orbifold models: footballs, weighted projective lines, cones.

Footballs CP^1 / mu_n and weighted projective lines P(d0, d1) are toric
orbifold curves.  Each is described once, by data the numerics read: the
section basis rule, the quotient order q with total volume 1/q, and per
chart the radial variable t, the basis exponent the chart frame reads and the
chart group.  In t the volume is (1+t)^-2 dt / q and the degree-m weight of
the basis monomial read as t^e is t^e (1+t)^-m, on every model.

Singular points store exact records of the isolated quotient singularities:
per structure group generator power k, the tangent rotation t*k/d and the
fiber rotation f*m*k/d of the degree-m bundle frame; the fiber exponent f is
-1 at charts whose frame monomial only exists when d | m, and 0 where the
group leaves the frame coordinate untouched.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelSpecError, UnsupportedModelError
from .groups import GroupAction, invariant_counts, invariant_monomials


@dataclass(frozen=True)
class Chart:
    """Affine chart of a toric orbifold curve, as the numerics read it.

    With u = |z|^2 in the chart coordinate z, the radial variable is
    t = u ** (1 / root).  The basis monomial a restricts to the chart frame
    as z^a[fibre_index], that is t^(a[fibre_index] * root).
    """

    id: str
    group: GroupAction
    root: int
    fibre_index: int


@dataclass(frozen=True)
class SingularPoint:
    """Isolated quotient singularity at the origin of its chart."""

    chart_id: str
    group_order: int
    tangent_weights: tuple[int, ...]
    fiber_weight: int
    action: GroupAction

    def __post_init__(self):
        d = self.group_order
        for w in self.tangent_weights:
            if math.gcd(w % d, d) != 1:
                raise ModelSpecError(
                    f"tangent weight {w} not coprime to {d}: non-isolated fixed point"
                )


@dataclass(frozen=True)
class OrbifoldModel:
    """A catalog model.  The curves carry charts, the basis rule (sections of
    degree m are the monomials of weighted degree m invariant under
    basis_action) and the quotient order; the cone has neither."""

    kind: str  # "football" | "wpl" | "cone"
    dim: int
    bundle_step: int
    charts: tuple[Chart, ...]
    singular_points: tuple[SingularPoint, ...]
    params: dict = field(default_factory=dict)
    basis_action: GroupAction | None = None
    degree_weights: tuple[int, ...] = (1, 1)
    quotient_order: int | None = None

    def chart(self, chart_id: str) -> Chart:
        for c in self.charts:
            if c.id == chart_id:
                return c
        raise KeyError(f"no chart {chart_id!r} in model {self.kind}")

    def singular_point(self, chart_id: str) -> SingularPoint | None:
        for p in self.singular_points:
            if p.chart_id == chart_id:
                return p
        return None

    def _sections_action(self) -> GroupAction:
        if self.basis_action is None:
            raise UnsupportedModelError(f"no global sections on a {self.kind}")
        return self.basis_action

    def section_basis(self, m: int) -> list[tuple[int, ...]]:
        """Exponents of the monomial basis of the degree-m sections."""
        return invariant_monomials(self._sections_action(), m, weights=self.degree_weights)

    def section_counts(self, ms) -> np.ndarray:
        """len(section_basis(m)) for every degree m of `ms`, in one pass."""
        return invariant_counts(self._sections_action(), ms, weights=self.degree_weights)

    def football_order(self) -> int:
        """n of the football CP^1 / mu_n, which the closed forms need."""
        if self.kind != "football":
            raise UnsupportedModelError(
                f"closed forms are known on footballs only, not on a {self.kind}")
        return self.params["n"]


def build_football(n: int) -> OrbifoldModel:
    """CP^1 / mu_n with two cyclic singular points and the FS metric."""
    if n <= 0:
        raise ModelSpecError("football order must be positive")
    group = GroupAction.cyclic(n, [1])
    singular = ()
    if n >= 2:
        # chart u0 holds [1,0]; its frame Z_0^m carries fiber exponent -1,
        # chart u1 holds [0,1]; its frame Z_1^m is untouched by the group.
        singular = (
            SingularPoint("u0", n, (1,), n - 1, group),
            SingularPoint("u1", n, (1,), 0, group),
        )
    return OrbifoldModel(
        kind="football",
        dim=1,
        bundle_step=n,
        charts=(Chart("u0", group, 1, 1), Chart("u1", group, 1, 0)),
        singular_points=singular,
        params={"n": n},
        basis_action=GroupAction.cyclic(n, [1, 0]),
        quotient_order=n,
    )


def build_wpl(d0: int, d1: int) -> OrbifoldModel:
    """Weighted projective line P(d0, d1), gcd(d0, d1) = 1.

    Chart u_i is the slice Z_i = 1 with coordinate w and t = |w|^(2/d_other);
    the residual group mu_{d_i} rotates w.
    """
    if d0 <= 0 or d1 <= 0:
        raise ModelSpecError("weights must be positive")
    if math.gcd(d0, d1) != 1:
        raise ModelSpecError("gcd(d0, d1) != 1: non-isolated or non-reduced")
    charts, singular = [], []
    for i, (dh, do) in enumerate(((d0, d1), (d1, d0))):
        group = GroupAction.cyclic(dh, [do % dh])
        charts.append(Chart(f"u{i}", group, do, 1 - i))
        if dh > 1:
            singular.append(SingularPoint(f"u{i}", dh, (do % dh,), dh - 1, group))
    return OrbifoldModel(
        kind="wpl",
        dim=1,
        bundle_step=1,
        charts=tuple(charts),
        singular_points=tuple(singular),
        params={"d": [d0, d1]},
        basis_action=GroupAction.trivial(2),
        degree_weights=(d0, d1),
        quotient_order=d0 * d1,
    )


def build_cone(action: GroupAction) -> OrbifoldModel:
    """Local model C^n / G: its singular point, no global sections."""
    if any(0 in e for e in action.elements[1:]):  # element 0 is the identity
        raise ModelSpecError("action has a fixed direction: singularity not isolated")
    point = SingularPoint(
        chart_id="u0",
        group_order=action.order,
        tangent_weights=(),  # the full action record lives in `action`
        fiber_weight=0,
        action=action,
    ) if action.order > 1 else None
    return OrbifoldModel(
        kind="cone",
        dim=action.dim,
        bundle_step=1,
        charts=(),
        singular_points=(point,) if point else (),
        params={"order": action.order},
    )


def build_model(spec) -> OrbifoldModel:
    """Build a catalog model from a JSON-style spec.

    {"kind": "football", "n": 3} | {"kind": "wpl", "d": [d0, d1]} |
    {"kind": "cone", "group": <group spec>}
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    kind = spec.get("kind")
    try:
        if kind == "football":
            return build_football(int(spec["n"]))
        if kind == "wpl":
            d = spec["d"]
            return build_wpl(int(d[0]), int(d[1]))
        if kind == "cone":
            return build_cone(GroupAction.from_spec(spec["group"]))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ModelSpecError(f"bad {kind} spec: missing or invalid {exc}") from exc
    raise ModelSpecError(f"unknown model kind {kind!r}")


"""Re-derive FAILING_DEGREES: run every gram_highdeg candidate degree once.

Each candidate op is judged by the same oracles the benchmark uses.  The
failing degrees are printed per model, and the exit code is 1 when they differ
from workloads.FAILING_DEGREES.  The first quadrature failure in the process
spends ~2 minutes generating Gauss-Legendre nodes, so a scan takes minutes.

    python3 perfbench/scan_failing.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads as w  # noqa: E402


def failing_degrees(spec: dict) -> set[int]:
    failing = set()
    for rung in w.GRAM_RUNGS:
        for m in w.jittered(rung, w.degree_step(spec), 4, w.GRAM_TOP):
            op = w.gram_op(spec, m, [(0.0, "u0"), (0.7, "u0")])
            t0 = time.perf_counter()
            try:
                error = op.check(op.run(None))
            except Exception as exc:  # any raise is a failed op, recorded as such
                error = f"{type(exc).__name__}: {exc}"
            print(f"{'ok  ' if error is None else 'FAIL'} {time.perf_counter() - t0:7.3f}s"
                  f" {op.key} {error or ''}", file=sys.stderr, flush=True)
            if error is not None:
                failing.add(m)
    return failing


def main() -> int:
    same = True
    for spec in w.GRAM_MODELS:
        failing = failing_degrees(spec)
        same &= failing == w.FAILING_DEGREES[w.model_key(spec)]
        print(w.model_key(spec), sorted(failing), flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: seeded op lists with a correctness check per op.

A workload is a list of ops (one pass). Every op calls the package through
a public entry point looked up as a module attribute at call time, so the
tracer's wrappers see it. Each list is stratified: the seed only jitters n
(and grid widths) inside fixed strata, so every seed does nearly the same
amount of work and the medians of different seeds stay comparable.

Callers import ``qhotunnel`` before this module (the set-up probe times
that import on its own).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qhotunnel import asymptotics, cli, oscillator, quadrature

# Published reference table: n -> (P_tun to 6 digits, relative error of eq42).
REFERENCE_TABLE = {
    10: (0.0601438, 1.323e-5),
    20: (0.0483977, 2.528e-6),
    50: (0.0360132, 2.534e-7),
    100: (0.0286973, 4.250e-8),
    200: (0.0228302, 6.975e-9),
    400: (0.0181454, 1.130e-9),
    500: (0.0168499, 6.276e-10),
    800: (0.0144138, 1.815e-10),
}

# Exact ring strings printed by `coeffs --order 13`, one list per family.
# The leading entries are the ones the acceptance gate asserts as ring
# equalities; `--order 5` must print the first five of the same list.
COEFFS_EXPECTED = json.loads((Path(__file__).with_name("coeffs_expected.json")).read_text())

TOL = 1e-13
PSI_POINTS = 20_000
COEFF_ORDERS = (5, 13)


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    # Highest percentile with at least 10 samples beyond it at the nominal
    # run length; the runner measures at least min_ops ops to keep it so.
    tail_pct: float

    @property
    def min_ops(self) -> int:
        return math.ceil(10.0 / (1.0 - self.tail_pct / 100.0))


def _jitter(rng: random.Random, centre: float, rel: float = 0.02) -> int:
    return round(centre * (1.0 + rel * (2.0 * rng.random() - 1.0)))


# ---------------------------------------------------------------------------
# table_ref: the paper's table, one row per op
# ---------------------------------------------------------------------------


def _table_row(n: int) -> Op:
    ref_p, ref_err = REFERENCE_TABLE[n]

    def check(rows) -> bool:
        (row,) = rows
        return (
            row.n == n
            and f"{row.p_exact:.6g}" == f"{ref_p:.6g}"
            and abs(row.rel_error / ref_err - 1.0) <= 0.02
        )

    return Op(f"row n={n}", lambda: asymptotics.relative_error_table([n], TOL, "eq42"), check)


def table_ref(seed: int) -> Workload:
    # The paper's rows in the paper's order for every seed: the set-up probe
    # runs the first row, and which row that is would otherwise move
    # setup_s by up to 150 ms.
    return Workload([_table_row(n) for n in sorted(REFERENCE_TABLE)], tail_pct=95.0)


# ---------------------------------------------------------------------------
# oracle_large_n: seconds-scale quadrature solves
# ---------------------------------------------------------------------------


def _oracle_solve(n: int) -> Op:
    mode = oscillator.OscillatorMode(n)

    def check(p_exact: float) -> bool:
        p_asym = asymptotics.tunnel_probability_asym(mode, "eq42").value
        return abs(p_exact - p_asym) / p_exact <= 1e-10

    return Op(f"exact n={n}", lambda: quadrature.tunnel_probability_exact(mode, TOL), check)


def oracle_large_n(seed: int) -> Workload:
    rng = random.Random(seed)
    # Strata at the cheap end of [5e3, 2e4]: solve time grows about linearly
    # with n, and a run needs 20 solves for its tail percentile.
    return Workload([_oracle_solve(_jitter(rng, c)) for c in (5200, 7000, 9800)], tail_pct=50.0)


# ---------------------------------------------------------------------------
# psi_grid: wide kernel calls, no quadrature
# ---------------------------------------------------------------------------


def _psi_grid(n: int, half_width: float) -> Op:
    mode = oscillator.OscillatorMode(n)
    h = 2.0 * half_width * mode.nu / (PSI_POINTS - 1)
    offsets = np.arange(PSI_POINTS) - (PSI_POINTS - 1) / 2.0

    def check(out) -> bool:
        m, e = out
        normalised = np.all(np.where(m == 0.0, e == 0, (np.abs(m) >= 0.5) & (np.abs(m) < 1.0)))
        parity = np.array_equal(m[::-1] * (-1) ** n, m) and np.array_equal(e[::-1], e)
        density = np.ldexp(m * m, np.clip(2 * e, -4000, 4000))
        norm = h * (density.sum() - 0.5 * (density[0] + density[-1]))
        return bool(normalised) and parity and abs(norm - 1.0) <= 1e-10

    # The grid is built inside the op (about 0.1% of its time), so each pass
    # places it in fresh memory. Integer offsets from the centre make
    # x[::-1] == -x exactly.
    return Op(f"grid n={n}", lambda: oscillator.eval_psi_grid(mode, h * offsets), check)


def psi_grid(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    # Three grids per stratum: a grid's time depends on where its arrays
    # land in memory by up to ~20%, so each percentile should cover several.
    for k in range(5):
        n = min(max(_jitter(rng, 200.0 * 10.0 ** (k / 4.0), 0.005), 200), 2000)
        for _ in range(3):
            ops.append(_psi_grid(n, 1.3 * (1.0 + 0.005 * (2.0 * rng.random() - 1.0))))
    return Workload(ops, tail_pct=75.0)


# ---------------------------------------------------------------------------
# expansion_sweep: CLI requests on the expansion side
# ---------------------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _validate(a: int, b: int) -> Op:
    def check(out) -> bool:
        code, text = out
        w = [float(line.rsplit("=", 1)[1]) for line in text.splitlines()]
        # acceptance criterion 7: small-n deviation within 1e-5, improving with n
        return code == 0 and len(w) == 2 and w[0] <= 1e-5 and w[1] < w[0]

    return Op(f"validate {a},{b}", lambda: _cli(["validate", "--ns", f"{a},{b}"]), check)


def _asym(ns: list[int], form: str) -> Op:
    def check(out) -> bool:
        code, text = out
        totals = []
        terms = []
        for line in text.splitlines():
            if line.startswith("n="):
                terms = []
                continue
            label, value = line.split()
            if label == "total":
                totals.append(float(value))
                # printed terms (10 digits each) add up to the printed total
                if abs(math.fsum(terms) - totals[-1]) > 1e-9 * abs(totals[-1]):
                    return False
            elif label != "last-term":
                terms.append(float(value))
        # P_tun lies in (0, 1/2) and falls with n
        return (
            code == 0
            and len(totals) == len(ns)
            and all(0.0 < t < 0.5 for t in totals)
            and all(u > v for u, v in zip(totals, totals[1:]))
        )

    argv = ["asym", *map(str, ns), "--form", form]
    return Op(f"asym {form} {ns}", lambda: _cli(argv), check)


def _coeffs(which: str, order: int) -> Op:
    expected = ", ".join(COEFFS_EXPECTED[which][:order])

    def check(out) -> bool:
        code, text = out
        return code == 0 and text.splitlines()[0] == expected

    argv = ["coeffs", "--which", which, "--order", str(order)]
    return Op(f"coeffs {which} {order}", lambda: _cli(argv), check)


def expansion_sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    # validate first: it triggers the cached derivations, so the set-up probe
    # (which runs the first op only) pays them
    ops = []
    for c in (52, 100, 390):
        a = _jitter(rng, c)
        ops.append(_validate(a, 4 * a))
    # 20 cheap asym requests make the median an asym request
    for _ in range(5):
        for form in asymptotics.FORMS:
            ns = sorted({round(10.0 ** rng.uniform(1.0, 5.0)) for _ in range(3)})
            ops.append(_asym(ns, form))
    ops += [_coeffs(which, order) for which in COEFFS_EXPECTED for order in COEFF_ORDERS]
    return Workload(ops, tail_pct=95.0)


WORKLOADS = {
    "table_ref": table_ref,
    "oracle_large_n": oracle_large_n,
    "psi_grid": psi_grid,
    "expansion_sweep": expansion_sweep,
}

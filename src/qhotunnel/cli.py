"""Command-line front end: compute, compare, tabulate, export.

Subcommands
-----------
exact      oracle tunnelling probability, a finite sum from the recurrence
asym       closed asymptotic expansion, with per-order breakdown
table      oracle vs expansion over a list of n, optionally to CSV
coeffs     exact expansion coefficients (ring form and decimals)
validate   pointwise sweep of the uniform wavefunction approximation

exact, table and validate cost O(n) per request and take n <= 10^6.

Exit codes: 0 success, 2 bad flags or an argument outside the supported
domain.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys

import numpy as np

from . import asymptotics, oscillator, quadrature, series
from .oscillator import OscillatorMode, ScaledValue, rel_diff

# Unused here, but perfbench/tracer.py wraps qhotunnel.cli.eval_psi, so the
# name stays bound.
from .oscillator import eval_psi  # noqa: F401

# --which -> the series family whose derive_<family>_series prints it
_COEFF_FAMILIES = {"alpha": "phi", "beta": "beta", "a1": "a1", "inversion": "inversion"}
_VALIDATE_XS = (1.0, 1.1, 1.5, 2.0, 3.0)
# the largest n measured: exact 0.45 s end to end, validate 3 s on the grid kernel
_MAX_N = 10**6


def _fmt10(v: float) -> str:
    return f"{v:.10g}"


def _fmt_err(v: float) -> str:
    return f"{v:.4e}"


def _parse_ns(text: str) -> list[int]:
    try:
        ns = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")
    if not ns:
        raise argparse.ArgumentTypeError("empty n list")
    return ns


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main call."""
    p = argparse.ArgumentParser(
        prog="qhotunnel",
        description="Harmonic-oscillator tunnelling probabilities: "
        "exact oracle and uniform Airy-type asymptotics.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    px = sub.add_parser("exact", help="oracle value")
    px.add_argument("n", type=int, nargs="+")

    pa = sub.add_parser("asym", help="closed asymptotic expansion")
    pa.add_argument("n", type=int, nargs="+")
    pa.add_argument("--form", choices=asymptotics.FORMS, default="eq42")

    pt = sub.add_parser("table", help="oracle vs expansion table")
    pt.add_argument("--ns", type=_parse_ns, required=True)
    pt.add_argument("--form", choices=asymptotics.FORMS, default="eq42")
    pt.add_argument("--csv", metavar="PATH", default=None)

    pc = sub.add_parser("coeffs", help="exact expansion coefficients")
    pc.add_argument("--which", choices=_COEFF_FAMILIES, required=True)
    pc.add_argument("--order", type=int, default=5)

    pv = sub.add_parser("validate", help="uniform-approximation sweep")
    pv.add_argument("--ns", type=_parse_ns, default=(100, 400))

    return p


def _check_supported(ns) -> None:
    """Reject the whole request before any output when an n is invalid or past _MAX_N."""
    for n in ns:
        OscillatorMode(n)
        if n > _MAX_N:
            raise ValueError(f"n = {n} is outside the supported range n <= 10^6")


def _run_exact(args) -> int:
    _check_supported(args.n)
    for n in args.n:
        p = quadrature.tunnel_probability_exact(OscillatorMode(n))
        print(f"{n} {_fmt10(p)}")
    return 0


def _run_asym(args) -> int:
    for n in args.n:
        r = asymptotics.tunnel_probability_asym(OscillatorMode(n), args.form)
        print(f"n={n} form={args.form}")
        for label, v in r.terms:
            print(f"  {label:<12} {v:+.10e}")
        print(f"  total        {r.value:+.10e}")
        print(f"  last-term    {r.last_term_estimate:.4e}")
    return 0


def _run_table(args) -> int:
    _check_supported(args.ns)
    # opened before any row is computed, so an unwritable path prints nothing
    try:
        sink = open(args.csv, "w", newline="") if args.csv else io.StringIO()
    except OSError as exc:
        raise ValueError(f"cannot write {args.csv}: {exc.strerror}") from None
    with sink:
        rows = [("n", "p_exact", "p_asym", "rel_error")] + [
            (str(r.n), _fmt10(r.p_exact), _fmt10(r.p_asym), _fmt_err(r.rel_error))
            for r in asymptotics.relative_error_table(args.ns, form=args.form)
        ]
        for fields in rows:
            print(",".join(fields))
        csv.writer(sink).writerows(rows)
    return 0


def _run_coeffs(args) -> int:
    s = getattr(series, f"derive_{_COEFF_FAMILIES[args.which]}_series")(args.order)
    exact = [series.format_coefficient(c) for c in s.coeffs]
    print(", ".join(exact))
    for k, c in enumerate(s.coeffs):
        print(f"  [{k}] {series.format_coefficient(c):<28} {c.to_float():+.12e}")
    return 0


def _run_validate(args) -> int:
    _check_supported(args.ns)
    for n in args.ns:
        mode = OscillatorMode(n)
        m, e = oscillator.eval_psi_grid(mode, np.array(_VALIDATE_XS) * mode.nu)
        worst = 0.0
        for xs, mk, ek in zip(_VALIDATE_XS, m, e):
            d = rel_diff(
                asymptotics.uniform_psi_approx(mode, xs),
                ScaledValue(float(mk), int(ek)),
            )
            worst = max(worst, d)
        print(f"n={n} max_rel_deviation={worst:.4e}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "exact": _run_exact,
        "asym": _run_asym,
        "table": _run_table,
        "coeffs": _run_coeffs,
        "validate": _run_validate,
    }
    try:
        return handlers[args.subcommand](args)
    except ValueError as exc:  # DomainError included
        print(f"qhotunnel {args.subcommand}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

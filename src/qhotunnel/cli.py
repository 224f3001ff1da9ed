"""Command-line front end: compute, compare, tabulate, export.

Subcommands
-----------
exact      oracle tunnelling probability by adaptive quadrature
asym       closed asymptotic expansion, with per-order breakdown
table      oracle vs expansion over a list of n, optionally to CSV
coeffs     exact expansion coefficients (ring form and decimals)
validate   pointwise sweep of the uniform wavefunction approximation

Exit codes: 0 success, 2 bad flags or an argument outside the supported
domain, 3 quadrature non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import asymptotics, oscillator, quadrature, series
from .oscillator import OscillatorMode, ScaledValue, rel_diff

# Unused here, but perfbench/tracer.py wraps qhotunnel.cli.eval_psi, so the
# name stays bound.
from .oscillator import eval_psi  # noqa: F401

_COEFF_CHOICES = ("alpha", "beta", "a1", "inversion")
_VALIDATE_XS = (1.0, 1.1, 1.5, 2.0, 3.0)


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


def _tol(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a real number: {text!r}")
    if not 1e-15 <= v <= 1e-3:
        raise argparse.ArgumentTypeError("tol must lie in [1e-15, 1e-3]")
    return v


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qhotunnel",
        description="Harmonic-oscillator tunnelling probabilities: "
        "quadrature oracle and uniform Airy-type asymptotics.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    px = sub.add_parser("exact", help="oracle value by adaptive quadrature")
    px.add_argument("n", type=int, nargs="+")
    px.add_argument("--tol", type=_tol, default=1e-13)

    pa = sub.add_parser("asym", help="closed asymptotic expansion")
    pa.add_argument("n", type=int, nargs="+")
    pa.add_argument("--form", choices=asymptotics.FORMS, default="eq42")

    pt = sub.add_parser("table", help="oracle vs expansion table")
    pt.add_argument("--ns", type=_parse_ns, required=True)
    pt.add_argument("--form", choices=asymptotics.FORMS, default="eq42")
    pt.add_argument("--tol", type=_tol, default=1e-13)
    pt.add_argument("--csv", metavar="PATH", default=None)

    pc = sub.add_parser("coeffs", help="exact expansion coefficients")
    pc.add_argument("--which", choices=_COEFF_CHOICES, required=True)
    pc.add_argument("--order", type=int, default=5)

    pv = sub.add_parser("validate", help="uniform-approximation sweep")
    pv.add_argument("--ns", type=_parse_ns, default=[100, 400])

    return p


def _run_exact(args) -> int:
    for n in args.n:
        p = quadrature.tunnel_probability_exact(OscillatorMode(n), args.tol)
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
    rows = asymptotics.relative_error_table(args.ns, args.tol, args.form)
    print("n,p_exact,p_asym,rel_error")
    for r in rows:
        print(f"{r.n},{_fmt10(r.p_exact)},{_fmt10(r.p_asym)},{_fmt_err(r.rel_error)}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "p_exact", "p_asym", "rel_error"])
            for r in rows:
                w.writerow([r.n, _fmt10(r.p_exact), _fmt10(r.p_asym), _fmt_err(r.rel_error)])
    return 0


def _run_coeffs(args) -> int:
    order = args.order
    if not 1 <= order <= 25:
        print("--order must be 1..25", file=sys.stderr)
        return 2
    if args.which == "alpha":
        s = series.derive_phi_series(order)
    elif args.which == "beta":
        s = series.derive_beta_series(order)
    elif args.which == "a1":
        s = series.derive_a1_series(order)
    else:
        s = series.derive_inversion_series(order)
    exact = [series.format_coefficient(c) for c in s.coeffs]
    print(", ".join(exact))
    for k, c in enumerate(s.coeffs):
        print(f"  [{k}] {series.format_coefficient(c):<28} {c.to_float():+.12e}")
    return 0


def _run_validate(args) -> int:
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
    except quadrature.NonConvergence as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # DomainError included
        print(f"qhotunnel {args.subcommand}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""The argparse parser that ``cli`` used before its command table, kept as a reference.

``tests/test_cli_parser.py`` checks that ``cli`` accepts and refuses the same
argv as this parser and reads the same fields from the ones it accepts.
``build_parser`` is the former ``cli.build_parser`` unchanged; ``_parse_ns``
now raises ``ValueError``, which argparse reports as a usage error as it did
``ArgumentTypeError``.
"""

from __future__ import annotations

import argparse
import functools

from qhotunnel import asymptotics
from qhotunnel.cli import _COEFF_FAMILIES, _parse_ns


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

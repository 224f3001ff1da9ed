"""Command-line front end: compute, compare, tabulate, export.

Usage
-----
qhotunnel exact N [N ...]
qhotunnel asym N [N ...] [--form FORM]
qhotunnel table --ns N,N,... [--form FORM] [--csv PATH]
qhotunnel coeffs --which FAMILY [--order K]
qhotunnel validate [--ns N,N,...]

exact      oracle tunnelling probability, a finite sum from the recurrence
asym       closed asymptotic expansion, with per-order breakdown
table      oracle vs expansion over a list of n, optionally to CSV
coeffs     exact expansion coefficients (ring form and decimals)
validate   pointwise sweep of the uniform wavefunction approximation

One table, ``_COMMANDS``, lists each command's flags and drives the parse,
the help and the usage errors.  The input language is argparse's: ``--flag
value`` or ``--flag=value``, a flag shortened to any unique prefix, the last
of a repeated flag wins, ``--`` ends the flags, a negative number such as
``-1`` is a value, and the N of exact and asym form one run (``asym 5
--form eq41 7`` is refused).  ``-h`` or ``--help``, alone or after a command,
prints that level's usage to stdout and exits 0.

exact, table and validate cost O(n) per request and take n <= 10^6.

Each request writes its report to stdout in one write, once every line of it
is known, so a request that exits 2 writes nothing to stdout.

Exit codes: 0 success or help; 2 bad flags (a usage line and one error line
on stderr) or an argument outside the supported domain (one error line).
"""

from __future__ import annotations

import csv
import io
import re
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple, NoReturn

from . import asymptotics, quadrature, series
from .oscillator import OscillatorMode, eval_psi, rel_diff

# --which -> the series family whose derive_<family>_series prints it
_COEFF_FAMILIES = {"alpha": "phi", "beta": "beta", "a1": "a1", "inversion": "inversion"}
_VALIDATE_XS = (1.0, 1.1, 1.5, 2.0, 3.0)
# the largest n measured: from launch, exact about 0.35-0.4 s and validate, five
# float-x kernel calls, 0.75-1 s (medians of 5 on one core)
_MAX_N = 10**6


def _fmt10(v: float) -> str:
    return f"{v:.10g}"


def _fmt_err(v: float) -> str:
    return f"{v:.4e}"


def _parse_ns(text: str) -> list[int]:
    try:
        ns = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"not a comma list of integers: {text!r}") from None
    if not ns:
        raise ValueError("empty n list")
    return ns


def _check_supported(ns) -> None:
    """Reject the whole request before any O(n) work when an n is invalid or past _MAX_N."""
    for n in ns:
        OscillatorMode(n)
        if n > _MAX_N:
            raise ValueError(f"n = {n} is outside the supported range n <= 10^6")


def _run_exact(args) -> list[str]:
    _check_supported(args.n)
    return [f"{n} {_fmt10(quadrature.tunnel_probability_exact(OscillatorMode(n)))}" for n in args.n]


def _run_asym(args) -> list[str]:
    lines = []
    for n in args.n:
        r = asymptotics.tunnel_probability_asym(OscillatorMode(n), args.form)
        lines.append(f"n={n} form={args.form}")
        # %-formatting: the same text as the format specs, at about half the cost a line
        lines += ["  %-12s %+.10e" % (label, v) for label, v in r.terms]
        lines.append("  total        %+.10e" % r.value)
        lines.append("  last-term    %.4e" % r.last_term_estimate)
    return lines


def _run_table(args) -> list[str]:
    _check_supported(args.ns)
    # refused before the CSV is opened, so a refused request leaves it as it was
    if min(args.ns) < 1:
        raise ValueError("the closed expansions need n >= 1")
    # opened before any row is computed, so an unwritable path costs no row
    try:
        sink = open(args.csv, "w", newline="") if args.csv else io.StringIO()
    except OSError as exc:
        raise ValueError(f"cannot write {args.csv}: {exc.strerror}") from None
    with sink:
        rows = [("n", "p_exact", "p_asym", "rel_error")] + [
            (str(r.n), _fmt10(r.p_exact), _fmt10(r.p_asym), _fmt_err(r.rel_error))
            for r in asymptotics.relative_error_table(args.ns, form=args.form)
        ]
        csv.writer(sink).writerows(rows)
    return [",".join(fields) for fields in rows]


def _run_coeffs(args) -> list[str]:
    s = getattr(series, f"derive_{_COEFF_FAMILIES[args.which]}_series")(args.order)
    exact = [series.format_coefficient(c) for c in s.coeffs]
    return [", ".join(exact)] + [
        "  [%d] %-28s %+.12e" % (k, text, c.to_float()) for k, (text, c) in enumerate(zip(exact, s.coeffs))
    ]


def _run_validate(args) -> list[str]:
    _check_supported(args.ns)
    lines = []
    for n in args.ns:
        mode = OscillatorMode(n)
        worst = 0.0
        for xs in _VALIDATE_XS:
            d = rel_diff(asymptotics.uniform_psi_approx(mode, xs), eval_psi(mode, xs * mode.nu))
            worst = max(worst, d)
        lines.append(f"n={n} max_rel_deviation={worst:.4e}")
    return lines


class _Flag(NamedTuple):
    """A ``--name value`` flag: ``kind`` converts the value, or is the tuple of its choices."""

    name: str
    kind: Callable[[str], object] | tuple[str, ...]
    default: object = None
    required: bool = False
    metavar: str = ""


class _Command(NamedTuple):
    help: str
    run: Callable[[SimpleNamespace], list[str]]
    takes_n: bool  # one or more integer positionals, read into .n
    flags: tuple[_Flag, ...] = ()


_FORM = _Flag("--form", asymptotics.FORMS, "eq42")
_NS_METAVAR = "N,N,..."

_COMMANDS = {
    "exact": _Command("oracle value", _run_exact, True),
    "asym": _Command("closed asymptotic expansion", _run_asym, True, (_FORM,)),
    "table": _Command(
        "oracle vs expansion table",
        _run_table,
        False,
        (
            _Flag("--ns", _parse_ns, required=True, metavar=_NS_METAVAR),
            _FORM,
            _Flag("--csv", str, metavar="PATH"),
        ),
    ),
    "coeffs": _Command(
        "exact expansion coefficients",
        _run_coeffs,
        False,
        (
            _Flag("--which", tuple(_COEFF_FAMILIES), required=True),
            _Flag("--order", int, 5, metavar="ORDER"),
        ),
    ),
    "validate": _Command(
        "uniform-approximation sweep",
        _run_validate,
        False,
        (_Flag("--ns", _parse_ns, (100, 400), metavar=_NS_METAVAR),),
    ),
}

_DESCRIPTION = "Harmonic-oscillator tunnelling probabilities: exact oracle and uniform Airy-type asymptotics."
# per command, and for the top level under None: flag name -> _Flag, or None for -h/--help
_HELP_NAMES = {"-h": None, "--help": None}
_NAMES = {None: _HELP_NAMES} | {cmd: _HELP_NAMES | {f.name: f for f in c.flags} for cmd, c in _COMMANDS.items()}
# argparse's test for a token that starts with "-" and is still a value
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _metavar(flag: _Flag) -> str:
    return "{%s}" % ",".join(flag.kind) if isinstance(flag.kind, tuple) else flag.metavar


def _usage(cmd: str | None) -> str:
    if cmd is None:
        return "usage: qhotunnel [-h] {%s} ..." % ",".join(_COMMANDS)
    parts = ["usage: qhotunnel", cmd, "[-h]"]
    for flag in _COMMANDS[cmd].flags:
        text = f"{flag.name} {_metavar(flag)}"
        parts.append(text if flag.required else f"[{text}]")
    if _COMMANDS[cmd].takes_n:
        parts.append("n [n ...]")
    return " ".join(parts)


def _help(cmd: str | None, value: str | None) -> NoReturn:
    """Print the usage of the top level (cmd None) or of one command to stdout; exit 0.

    A value glued to -h or --help (``--help=x``, ``-hx``) is a usage error.
    """
    if value is not None:
        _fail(cmd, f"argument -h/--help: ignored explicit argument {value!r}")
    if cmd is None:
        rows = [(name, c.help) for name, c in _COMMANDS.items()]
        head, tail = [_DESCRIPTION, "", "commands:"], ["", "'qhotunnel COMMAND -h' lists the flags of one command."]
    else:
        c = _COMMANDS[cmd]
        rows = [("n [n ...]", "one or more integers")] if c.takes_n else []
        rows.append(("-h, --help", "show this help and exit"))
        for flag in c.flags:
            default = ",".join(map(str, flag.default)) if isinstance(flag.default, tuple) else flag.default
            note = "required" if flag.required else "" if default is None else f"default: {default}"
            rows.append((f"{flag.name} {_metavar(flag)}", note))
        head, tail = [c.help, ""], []
    lines = [_usage(cmd), ""] + head
    for left, text in rows:
        lines += [f"  {left:<22}{text}".rstrip()] if len(left) < 21 else [f"  {left}", " " * 24 + text]
    sys.stdout.write("\n".join(lines + tail) + "\n")
    raise SystemExit(0)


def _fail(cmd: str | None, message: str) -> NoReturn:
    """A usage error: the usage line and the message on stderr, then exit 2."""
    prog = "qhotunnel" if cmd is None else f"qhotunnel {cmd}"
    sys.stderr.write(f"{_usage(cmd)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _classify(cmd: str | None, token: str) -> tuple[str, str | None] | None:
    """(flag name, value after "=" or None) for a flag token, None for a value.

    argparse's rules: a flag may be any unique prefix of a "--" name, and a
    token stays a value when it is "-" alone, looks like a negative number or
    holds a space.  An unknown flag is named "".
    """
    if token[:1] != "-" or token == "-":
        return None
    names = _NAMES[cmd]
    if token in names:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":
        found = [n for n in names if n.startswith(name)]
        if len(found) > 1:
            _fail(cmd, f"ambiguous option: {name} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif token[:2] == "-h":
        return "-h", token[2:]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return "", None


def _convert(cmd: str, name: str, kind, text: str):
    if isinstance(kind, tuple):
        if text not in kind:
            _fail(cmd, f"argument {name}: invalid choice: {text!r} (choose from {', '.join(kind)})")
        return text
    try:
        return kind(text)
    except ValueError as exc:
        _fail(cmd, f"argument {name}: {exc}")


def _parse_command(cmd: str, tokens) -> SimpleNamespace:
    """The fields of one command from the tokens after its name."""
    command = _COMMANDS[cmd]
    # every token is classified first, as argparse does, so an ambiguous flag
    # fails before any help; after the first "--" every token is a value
    kinds = []
    for token in tokens:
        if token == "--":
            kinds += ["--"] + [None] * (len(tokens) - len(kinds) - 1)
            break
        kinds.append(_classify(cmd, token))
    fields = {f.name[2:]: f.default for f in command.flags if not f.required}
    ns = []
    run = 0  # the integer positionals: 0 not met yet, 1 being read, 2 ended by a flag
    extras = []
    i = 0
    while i < len(tokens):
        token, kind = tokens[i], kinds[i]
        i += 1
        if kind is None or kind == "--":
            if not command.takes_n or run == 2:
                extras.append(token)
            else:
                run = 1
                if kind is None:
                    ns.append(_convert(cmd, "n", int, token))
            continue
        if run == 1:
            run = 2
        name, value = kind
        if not name:
            extras.append(token)
            continue
        flag = _NAMES[cmd][name]
        if flag is None:
            _help(cmd, value)
        if value is None:
            if i == len(tokens) or kinds[i] is not None:
                _fail(cmd, f"argument {name}: expected one argument")
            value = tokens[i]
            i += 1
        fields[name[2:]] = _convert(cmd, name, flag.kind, value)
    missing = [f.name for f in command.flags if f.name[2:] not in fields]
    if command.takes_n:
        if not ns:
            missing.append("n")
        fields["n"] = ns
    if missing:
        _fail(cmd, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(cmd, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(subcommand=cmd, **fields)


def _parse(argv) -> SimpleNamespace:
    """The request's fields, read from argv by the table above (see the module docstring)."""
    extras = []
    for i, token in enumerate(argv):
        kind = None if token == "--" else _classify(None, token)
        if kind is None:
            if token not in _COMMANDS:
                _fail(None, f"invalid command: {token!r} (choose from {', '.join(_COMMANDS)})")
            args = _parse_command(token, argv[i + 1 :])
            if extras:
                _fail(None, f"unrecognized arguments: {' '.join(extras)}")
            return args
        name, value = kind
        if name:
            _help(None, value)
        # an unknown flag: refused once the command's own errors and help have had their turn
        extras.append(token)
    _fail(None, "a command is required")


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        lines = _COMMANDS[args.subcommand].run(args)
    except ValueError as exc:  # DomainError included
        print(f"qhotunnel {args.subcommand}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

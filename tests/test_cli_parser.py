"""The CLI's command-table parser against the argparse parser it replaced.

Both must accept and refuse the same argv and read the same fields from the
ones they accept.  A refusal is compared by exit code 2 and an empty stdout,
not by its text, which changes between argparse releases.  The sweep draws
no ``-h`` with letters glued to it, which argparse 3.13 reads as help and
3.10-3.12 refuse, and none of two shapes that newer argparse patch releases
may read differently: a negative in scientific notation or with underscores,
and a ``--`` before the command.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhotunnel import cli
from qhotunnel.asymptotics import FORMS

from . import _argparse_reference
from .test_cli_golden import COMMANDS as GOLDEN_COMMANDS

ROOT = Path(__file__).resolve().parents[1]


def _outcome(parse, argv):
    """("ok", fields) for an accepted argv, else ("exit", code, whether stdout was written)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            fields = vars(parse(list(argv)))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue() != ""
    return "ok", fields


def _reference(argv):
    return _outcome(lambda a: _argparse_reference.build_parser().parse_args(a), argv)


def _table(argv):
    return _outcome(cli._parse, argv)


@pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=" ".join)
def test_golden_commands_parse_as_before(argv):
    assert _table(argv) == _reference(argv)
    assert _table(argv)[0] == "ok"


def _workload_argvs(monkeypatch, seeds):
    """Every argv that the benchmark's expansion_sweep passes to cli.main, for these seeds."""
    spec = importlib.util.spec_from_file_location("_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    argvs = []
    monkeypatch.setattr(cli, "main", lambda argv: argvs.append(list(argv)) or 0)
    for seed in seeds:
        for op in workloads.expansion_sweep(seed).ops:
            op.run()
    return argvs


def test_benchmark_argvs_parse_as_before(monkeypatch):
    argvs = _workload_argvs(monkeypatch, seeds=(1, 2, 3))
    monkeypatch.undo()
    assert len(argvs) == 3 * 31
    for argv in argvs:
        assert _table(argv) == _reference(argv), argv
        assert _table(argv)[0] == "ok", argv


class TestInputLanguage:
    @pytest.mark.parametrize(
        "argv, fields",
        [
            (["asym", "5", "--form=eq41"], {"n": [5], "form": "eq41"}),
            (["asym", "--form", "eq41", "5", "7"], {"n": [5, 7], "form": "eq41"}),
            # a repeated flag keeps its last value
            (["asym", "5", "--form", "eq41", "--form=numeric42"], {"n": [5], "form": "numeric42"}),
            # any unique prefix names a flag
            (["coeffs", "--wh", "beta", "--o=7"], {"which": "beta", "order": 7}),
            (["table", "--n=5,6", "--f", "eq41", "--c", "out.csv"], {"ns": [5, 6], "form": "eq41", "csv": "out.csv"}),
            # "--" ends the flags; a negative number is a value
            (["asym", "--", "5", "7"], {"n": [5, 7], "form": "eq42"}),
            (["exact", "-1", "3"], {"n": [-1, 3]}),
            (["coeffs", "--which", "a1", "--order", "-3"], {"which": "a1", "order": -3}),
            (["validate"], {"ns": (100, 400)}),
        ],
    )
    def test_accepted(self, argv, fields):
        assert _table(argv) == ("ok", {"subcommand": argv[0], **fields})

    @pytest.mark.parametrize(
        "argv",
        [
            ["asym", "5", "--form", "eq41", "7"],  # a positional after a flag
            ["asym", "5", "--form"],
            ["asym", "--form", "-h", "5"],
            ["asym", "5", "--bogus"],
            ["asym", "-1e5"],
            ["exact", "--"],
            ["exact", "1.5"],
            ["table", "--form", "eq41"],
            ["table", "--ns="],
            ["validate", "--ns", "-1,-2"],
            ["validate", "--"],
            ["coeffs", "--which", "gamma"],
            ["coeffs", "--which", "alpha", "--order", "1.5"],
            ["--", "asym", "5"],
            ["asy", "5"],
        ],
        ids=" ".join,
    )
    def test_refused(self, argv):
        assert _table(argv) == ("exit", 2, False)


# an integer four draws in five
_n_token = st.sampled_from(
    [st.integers(-50, 10**6).map(str)] * 4 + [st.sampled_from(["1.5", "-1.5", "x", "", "+5", " 7 ", "1_0", "-0", "1e5"])]
).flatmap(lambda s: s)
# per flag: values it accepts, then values it refuses
_FLAG_VALUES = {
    "--form": (FORMS, ("bogus", "-1")),
    "--ns": (("5", "5,6", "1,,2", "-1"), ("-1,-2", "x,1", ",", "", "1.5")),
    "--csv": (("out.csv", "-", "-1", "", "a=b"), ("-x",)),
    "--which": (("alpha", "beta", "a1", "inversion"), ("gamma",)),
    "--order": (("5", "-3", " 7 "), ("1.5", "x")),
    "--bogus": ((), ("1",)),
}
_COMMAND_FLAGS = {
    "exact": (),
    "asym": ("--form",),
    "table": ("--ns", "--form", "--csv"),
    "coeffs": ("--which", "--order"),
    "validate": ("--ns",),
}


def _one_in(draw, k: int) -> bool:
    return draw(st.sampled_from([False] * (k - 1) + [True]))


@st.composite
def _argv(draw):
    """A command, then n values and flags in any order: flags shortened, joined by "=" or missing their value.

    Most draws use the command's own flags and values it accepts, so that
    accepted argv are common; the rest bring in every kind of refusal.
    """
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    takes_n = command in ("exact", "asym")
    ns = [draw(_n_token) for _ in range(draw(st.integers(1, 3)))] if takes_n or _one_in(draw, 5) else []
    pieces = [ns] if _one_in(draw, 2) else [[n] for n in ns]
    names = [name for name in _COMMAND_FLAGS[command] if not _one_in(draw, 4)]
    names += [draw(st.sampled_from(sorted(_FLAG_VALUES))) for _ in range(draw(st.integers(0, 1)))]
    for name in names:
        typed = name[: draw(st.integers(3, len(name)))]
        good, bad = _FLAG_VALUES[name]
        value = draw(st.sampled_from(good if good and not _one_in(draw, 6) else bad))
        pieces.append(draw(st.sampled_from([[typed, value]] * 4 + [[f"{typed}={value}"]] * 3 + [[typed]])))
    if _one_in(draw, 10):
        pieces.append([draw(st.sampled_from(["-h", "--help", "--he"]))])
    tokens = [token for piece in draw(st.permutations(pieces)) for token in piece]
    if _one_in(draw, 3):
        tokens.insert(draw(st.integers(0, len(tokens))), "--")
    if _one_in(draw, 20):
        command = "bogus"
    head = [draw(st.sampled_from(["-h", "--bogus"]))] if _one_in(draw, 20) else []
    return head + [command] + tokens


@settings(max_examples=600, deadline=None)
@given(_argv())
def test_sweep_parses_as_before(argv):
    assert _table(argv) == _reference(argv)

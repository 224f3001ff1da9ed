import contextlib
import csv
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhotunnel import cli
from qhotunnel.asymptotics import FORMS, tunnel_probability_asym
from qhotunnel.oscillator import OscillatorMode, eval_psi, eval_psi_grid
from qhotunnel.quadrature import tunnel_probability_exact

from ._oracles import FROZEN


_HUGE_N = "1" + "0" * 400


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExact:
    def test_ground_state(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "0")
        assert code == 0
        n, value = out.split()
        assert n == "0"
        # 10 printed significant digits: granularity ~5e-11 here
        assert float(value) == pytest.approx(FROZEN["erfc_1"], abs=1e-10)

    def test_largest_supported_n_matches_eq42(self, capsys):
        # eq42's truncation is far below 1e-11 here; what remains is the kernel's rounding of psi_n
        mode = OscillatorMode(10**6)
        p_exact = tunnel_probability_exact(mode, 1e-13)
        p_asym = tunnel_probability_asym(mode, "eq42").value
        assert abs(p_exact - p_asym) <= 1e-11 * p_asym
        assert run_cli(capsys, "exact", str(10**6)) == (0, f"1000000 {p_exact:.10g}\n", "")

    def test_multiple_n(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "0", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 2


class TestAsym:
    def test_breakdown_sums(self, capsys):
        code, out, _ = run_cli(capsys, "asym", "100", "--form", "eq42")
        assert code == 0
        lines = out.strip().splitlines()
        terms = [float(l.split()[1]) for l in lines if l.strip().startswith("nu^")]
        total = next(float(l.split()[1]) for l in lines if "total" in l)
        assert total == pytest.approx(sum(terms), rel=1e-12)
        assert total == pytest.approx(0.0286973, rel=1e-5)


class TestTable:
    def test_single_row_matches_published(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--ns", "10")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "n,p_exact,p_asym,rel_error"
        n, p_exact, p_asym, err = row.split(",")
        assert n == "10"
        assert float(p_exact) == pytest.approx(0.0601438, abs=5e-8)
        assert float(err) == pytest.approx(1.323e-5, rel=0.02)

    def test_csv_round_trip(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "table", "--ns", "5,10", "--csv", str(path))
        assert code == 0
        stdout_rows = [line.split(",") for line in out.strip().splitlines()]
        with open(path, newline="") as fh:
            file_rows = list(csv.reader(fh))
        assert file_rows == stdout_rows

    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_csv_exits_2_before_any_row(self, capsys, tmp_path, target):
        path = tmp_path / "missing" / "rows.csv" if target == "missing_dir" else tmp_path
        code, out, err = run_cli(capsys, "table", "--ns", "10", "--csv", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and f"cannot write {path}" in err

    def test_refused_n_leaves_the_csv_untouched(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"precious")
        code, out, err = run_cli(capsys, "table", "--ns", "0,10", "--csv", str(path))
        assert (code, out) == (2, "")
        assert "n >= 1" in err
        assert path.read_bytes() == b"precious"

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--ns", "5,8")
        _, second, _ = run_cli(capsys, "table", "--ns", "5,8")
        assert first == second

    def test_ascii_output(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--ns", "10")
        out.encode("ascii")


class TestCoeffs:
    def test_alpha_exact_forms(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--which", "alpha", "--order", "5")
        assert code == 0
        assert out.splitlines()[0] == "2^(-2/3), -1/5, 2^(5/3)/35, -2^(10/3)/225, 1548/67375"

    def test_decimals_shown(self, capsys):
        _, out, _ = run_cli(capsys, "coeffs", "--which", "beta", "--order", "2")
        lines = out.strip().splitlines()
        assert float(lines[1].split()[-1]) == pytest.approx(
            (9.0 / 280.0) * 2.0 ** (-1.0 / 3.0), rel=1e-12
        )

    def test_all_families_run(self, capsys):
        for which in ("alpha", "beta", "a1", "inversion"):
            code, _, _ = run_cli(capsys, "coeffs", "--which", which, "--order", "3")
            assert code == 0

    @pytest.mark.parametrize("order", [1, 25, 30])
    @pytest.mark.parametrize("which", ["alpha", "beta", "a1", "inversion"])
    def test_documented_order_range_runs(self, capsys, which, order):
        # the internal work lengths run past the order asked for
        code, out, _ = run_cli(capsys, "coeffs", "--which", which, "--order", str(order))
        _, ref, _ = run_cli(capsys, "coeffs", "--which", which, "--order", "13")
        assert code == 0
        entries = out.splitlines()[0].split(", ")
        assert len(entries) == order
        assert entries[:13] == ref.splitlines()[0].split(", ")[:order]


class TestValidate:
    def test_sweep_reports_small_deviation(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--ns", "100")
        assert code == 0
        assert out.startswith("n=100 max_rel_deviation=")
        assert float(out.strip().rsplit("=", 1)[1]) <= 1e-5

    def test_sweep_text_is_stable(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--ns", "100,400")
        assert code == 0
        assert out == "n=100 max_rel_deviation=2.3750e-09\nn=400 max_rel_deviation=3.8499e-11\n"

    def test_ground_state_is_validated(self, capsys):
        # the uniform form's prefactor is summed term by term at small n: the Stirling
        # route through eq. 41's prefactor takes ln n, which has no value at n = 0
        code, out, _ = run_cli(capsys, "validate", "--ns", "0,1")
        assert code == 0
        assert out == "n=0 max_rel_deviation=1.0896e-02\nn=1 max_rel_deviation=6.3634e-04\n"

    def test_default_ns(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == ["n=100", "n=400"]

    @pytest.mark.parametrize("n", [1, 52, 208, 400, 1560, 10**4])
    def test_float_calls_give_the_bits_of_the_grid(self, n):
        # validate runs the kernel once per point, at a float x; the five-point grid gives the same bits
        mode = OscillatorMode(n)
        m, e = eval_psi_grid(mode, np.array(cli._VALIDATE_XS) * mode.nu)
        points = [eval_psi(mode, xs * mode.nu) for xs in cli._VALIDATE_XS]
        assert [(v.mantissa.hex(), v.exponent) for v in points] == [(mk.hex(), ek) for mk, ek in zip(m.tolist(), e.tolist())]


class TestExitCodes:
    def test_flag_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--ns", "abc"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["asym", "5", "--form", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("exact", "--", "-1"),
            ("asym", "0"),
            ("table", "--ns", "0,1"),
            # 2n + 1 past the largest double
            ("exact", _HUGE_N),
            ("asym", _HUGE_N),
            ("table", "--ns", _HUGE_N),
            ("coeffs", "--which", "alpha", "--order", "0"),
            ("coeffs", "--which", "alpha", "--order", "31"),
            # n = 5 is computed before n = 0 is refused
            ("asym", "5", "0"),
            ("asym", "5", "0", "--form", "eq41"),
        ],
    )
    def test_out_of_domain_arguments_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestReport:
    @pytest.mark.parametrize(
        "argv",
        [
            ("exact", "0", "10"),
            ("asym", "1", "100"),
            ("table", "--ns", "10,20"),
            ("coeffs", "--which", "beta", "--order", "4"),
            ("validate", "--ns", "100,400"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_report_is_one_write(self, argv):
        out = _CountingStdout()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(argv)) == 0
        assert out.writes == 1
        assert out.getvalue().endswith("\n") and "\n\n" not in out.getvalue()

    @pytest.mark.parametrize(
        "build",
        [
            lambda ns: ["exact", *ns],
            lambda ns: ["asym", *ns, "--form", "numeric42"],
            lambda ns: ["validate", "--ns", ",".join(ns)],
        ],
        ids=["exact", "asym", "validate"],
    )
    def test_multi_n_report_joins_the_single_n_reports(self, capsys, build):
        # no blank line between the parts, one newline at the end
        ns = ["1", "7", "100"]
        code, whole, _ = run_cli(capsys, *build(ns))
        assert code == 0
        assert whole == "".join(run_cli(capsys, *build([n]))[1] for n in ns)
        assert whole.endswith("\n") and "\n\n" not in whole


class TestSupportedRange:
    @pytest.mark.parametrize(
        "argv",
        [
            ("exact", "1", str(10**6 + 1)),
            ("table", "--ns", f"1,{10**6 + 1}"),
            ("validate", "--ns", f"1,{10**6 + 1}"),
        ],
    )
    def test_n_past_the_range_exits_2_before_any_output(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert out == ""
        assert "n <= 10^6" in err

    @pytest.mark.parametrize(
        "argv",
        [("exact", "3", "-1"), ("table", "--ns", "3,-1"), ("validate", "--ns", "3,-1")],
    )
    def test_negative_n_exits_2_before_any_output(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be >= 0" in err


def _fresh(*argv):
    """A new interpreter run with these arguments, importing the package from the source tree."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


class TestParserReuse:
    def test_flag_error_leaves_the_parser_intact(self, capsys):
        first = _fresh("-m", "qhotunnel", "asym", "100")
        assert first.returncode == 0, first.stderr
        with pytest.raises(SystemExit) as exc:
            cli.main(["asym", "100", "--form", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, "asym", "100") == (0, first.stdout, "")


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [[flag] for flag in ("-h", "--help")] + [[cmd, flag] for cmd in cli._COMMANDS for flag in ("-h", "--help")],
        ids=" ".join,
    )
    def test_help_exits_0_with_the_usage_on_stdout(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 0
        assert out.err == ""
        prog = "qhotunnel" if len(argv) == 1 else f"qhotunnel {argv[0]}"
        assert out.out.startswith(f"usage: {prog} [-h] ")
        if len(argv) == 1:
            assert all(f"\n  {cmd} " in out.out for cmd in cli._COMMANDS)
        else:
            assert all(f"\n  {flag.name} " in out.out for flag in cli._COMMANDS[argv[0]].flags)

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["bogus", "-h"], ["-x", "asym", "5"]], ids=repr)
    def test_no_or_unknown_command_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        usage, error = out.err.splitlines()
        assert usage.startswith("usage: qhotunnel [-h] ")
        assert error.startswith("qhotunnel: error: ")

    def test_usage_error_names_the_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["asym", "5", "--form", "bogus"])
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        usage, error = out.err.splitlines()
        assert usage.startswith("usage: qhotunnel asym [-h] ")
        assert error.startswith("qhotunnel asym: error: argument --form: invalid choice: 'bogus'")

    def test_import_leaves_argparse_and_gettext_out(self):
        probe = "import sys, qhotunnel.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
        proc = _fresh("-c", probe)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# n log-uniform over [1, 10^400]: a decade, then a value inside it
_ns = st.integers(0, 400).flatmap(lambda d: st.integers(10**d, 10 ** (d + 1) - 1))
_asym_argv = st.builds(lambda n, form: ["asym", str(n), "--form", form], _ns, st.sampled_from(FORMS))
_coeffs_argv = st.builds(
    lambda which, order: ["coeffs", "--which", which, "--order", str(order)],
    st.sampled_from(["alpha", "beta", "a1", "inversion"]),
    st.integers(-5, 40),
)


@settings(max_examples=300, deadline=None)
@given(_asym_argv | _coeffs_argv)
def test_no_asym_or_coeffs_argv_exits_1(argv):
    # exact, table and validate cost O(n) per request and stay out of this sweep
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), argv


# n in [0, 2000], where a request takes milliseconds, three draws in four;
# otherwise negative, past the 10^6 cap, or a 401-digit n, each of which
# must be refused before any O(n) work
_oracle_n = st.sampled_from(
    [st.integers(0, 2000)] * 9
    + [st.integers(-(10**6), -1), st.integers(10**6 + 1, 10**30), st.just(10**400)]
).flatmap(lambda s: s)
_oracle_ns = st.lists(_oracle_n, min_size=1, max_size=3).map(lambda ns: [str(n) for n in ns])
_oracle_argv = (
    st.builds(lambda ns: ["exact", *ns], _oracle_ns)
    | st.builds(lambda ns: ["table", "--ns", ",".join(ns)], _oracle_ns)
    | st.builds(lambda ns: ["validate", "--ns", ",".join(ns)], _oracle_ns)
)


@settings(max_examples=120, deadline=None)
@given(_oracle_argv)
def test_no_exact_table_or_validate_argv_exits_1(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), argv


def test_module_entry_point_runs():
    proc = _fresh("-m", "qhotunnel", "exact", "10")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "10 0.06014381449\n"

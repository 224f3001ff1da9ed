"""Golden CLI transcript: fixed commands replayed through ``cli.main``.

``_cli_golden.txt`` holds the concatenated stdout of ``COMMANDS``, made by
``regenerate()``.  Run ``python -m tests.test_cli_golden`` to check that the
transcript reproduces, and add ``--write`` to rewrite it.  ``validate`` at
n >= 10^4 is left out: it sits at the conditioning limit of the sweep, where
libm differences could flip its printed digits.
"""

import contextlib
import io
import sys
from pathlib import Path

from qhotunnel import cli
from qhotunnel.asymptotics import FORMS

GOLDEN = Path(__file__).with_name("_cli_golden.txt")

COMMANDS = (
    ("table", "--ns", "10,20,50,100,200,400,500,800"),
    ("exact", "0", "1", "2", "7", "10", "30", "800", "2000", "5200", "9800"),
    ("validate",),
    ("validate", "--ns", "1,2,3,5,10,20,50,100,400,800"),
    *(("asym", "1", "7", "100", "800", "100000", "--form", form) for form in FORMS),
    *(("coeffs", "--which", w, "--order", "13") for w in ("alpha", "beta", "a1", "inversion")),
)


def regenerate() -> str:
    """The concatenated stdout of COMMANDS; each must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in COMMANDS:
            if cli.main(list(argv)) != 0:
                raise RuntimeError(f"qhotunnel {' '.join(argv)} did not exit 0")
    return out.getvalue()


def test_transcript_matches_golden():
    assert regenerate() == GOLDEN.read_text()


if __name__ == "__main__":
    text = regenerate()
    if "--write" in sys.argv[1:]:
        GOLDEN.write_text(text)
        print(f"wrote {GOLDEN.name} ({len(text)} characters)")
    else:
        print("transcript reproduces" if text == GOLDEN.read_text() else "stale transcript")

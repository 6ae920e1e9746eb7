"""The CLI surface, pinned byte for byte in tests/golden/.

Each case runs one command in process and compares its stdout, with every
`elapsed_seconds` field removed, to the committed file.  The default tier is
CASES; SLOW_CASES holds the `--slow` reports and is marked `slow`.  A change
that alters an output on purpose regenerates the files in the same commit:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from kleinepw.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(__file__).resolve().parent.parent / "src" / "kleinepw" / "data"


def _groebner_cases():
    for name in ("gm_threefold", "gm_fivefold", "gm_sixfold"):
        yield f"groebner-{name}.json", ["groebner", "--file", str(DATA / f"{name}.json")]
    # the threefold and fivefold files already say "codim": 4; the sixfold's
    # has none, so only its case takes the --codim flag
    yield "groebner-gm_sixfold-codim4.json", [
        "groebner", "--file", str(DATA / "gm_sixfold.json"), "--codim", "4"]


# (file name, argv); `verify` and `groebner` print one JSON object a line
CASES = [
    ("verify-all.jsonl", ["--json", "verify", "all"]),
    ("verify-epw.jsonl", ["--json", "verify", "epw"]),
    *((f"fixed-points-{n}.json", ["--json", "fixed-points", "--order", str(n)])
      for n in (2, 3, 5, 6, 11)),
    ("emit-sextic.txt", ["emit-sextic"]),
    ("char-table.txt", ["char-table"]),
    *_groebner_cases(),
]

# the `--slow` epw report: the conductor-33 fixed points, about 1 s
SLOW_CASES = [
    ("verify-epw-slow.jsonl", ["--json", "verify", "epw", "--slow"]),
]


def _without_elapsed(line):
    if '"elapsed_seconds"' not in line:
        return line
    record = json.loads(line)
    del record["elapsed_seconds"]
    return json.dumps(record, ensure_ascii=False, sort_keys=True)


def render(argv):
    """The command's exit code and its stdout with `elapsed_seconds` removed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    lines = out.getvalue().splitlines()
    return code, "".join(_without_elapsed(line) + "\n" for line in lines)


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(name, argv):
    _, text = render(argv)
    assert text == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.slow
@pytest.mark.parametrize("name, argv", SLOW_CASES, ids=[name for name, _ in SLOW_CASES])
def test_slow_output_matches_golden(name, argv):
    _, text = render(argv)
    assert text == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES + SLOW_CASES:
        code, text = render(argv)
        (GOLDEN / name).write_text(text, encoding="utf-8")
        print(f"{name}: exit {code}", file=sys.stderr)

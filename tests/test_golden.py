"""The CLI surface, pinned byte for byte in tests/golden/.

Each case runs one command in process and compares its stdout, with every
`elapsed_seconds` field removed, to the committed file.  The default tier is
CASES; SLOW_CASES holds the `--slow` reports and is marked `slow`.  A change
that alters an output on purpose regenerates the files in the same commit:

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from kleinepw.cli import _indented_json, build_parser, main

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
    ("emit-sextic.json", ["--json", "emit-sextic"]),
    ("char-table.txt", ["char-table"]),
    ("char-table.json", ["--json", "char-table"]),
    *((f"hermitian-{check}.{ext}", [*flag, "hermitian", "--check", check])
      for check in ("hprime", "mat10", "principal")
      for ext, flag in (("json", ["--json"]), ("txt", []))),
    ("stratum.json", ["--json", "stratum", "--point", "1,-2,1/3,0.5,0,0"]),
    ("lattice-short-vectors.json",
     ["--json", "lattice", "--spec", "[[2,1],[1,2]]+(6)", "--short-vectors", "6"]),
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


def test_every_subcommand_has_a_golden_case():
    # a new subcommand cannot ship with its output unpinned
    parser = build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    pinned = {parser.parse_args(argv).command for _, argv in CASES + SLOW_CASES}
    assert pinned == set(commands)


@pytest.mark.parametrize("name", sorted(path.name for path in GOLDEN.glob("*.json*")))
def test_indented_json_reemits_the_golden_file(name):
    # a .jsonl file holds one JSON document a line, a .json file one in all
    text = (GOLDEN / name).read_text(encoding="utf-8")
    for doc in map(json.loads, text.splitlines() if name.endswith(".jsonl") else [text]):
        want = json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2)
        assert _indented_json(doc) == want


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

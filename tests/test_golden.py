"""Golden report bytes: every bundled example and a few CLI scans must print
exactly the stored report.

`golden/cases.json` maps a case name to its argv and exit code;
`golden/<name>.json` holds the report bytes.  A change that is meant to change
reports rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and says in its description why the bytes changed.
"""

import contextlib
import io
import json
import pathlib

import pytest

from dmlab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name):
    case = CASES[name]
    code, out = _run(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, case in sorted(CASES.items()):
        case["exit"], text = _run(case["argv"])
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
    (GOLDEN / "cases.json").write_text(
        json.dumps(CASES, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

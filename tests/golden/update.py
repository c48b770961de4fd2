"""Regenerate the expected outputs of the golden command-line corpus.

Each directory next to this file is one case:

    argv.json     the command line, a JSON list of strings
    in/           input files, copied into an empty working directory
    out/stdout    the expected standard output
    out/stderr    the expected standard error
    out/exit      the expected exit code
    out/files/    every file the command writes, under its name

``tests/test_golden.py`` replays each case through ``cli.main`` and
compares bytes.  After a deliberate change of output, rewrite the
expected files from the repository root with

    PYTHONPATH=src python tests/golden/update.py [CASE ...]

and name each changed case in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent


def cases() -> list[Path]:
    return sorted(p for p in ROOT.iterdir() if (p / "argv.json").is_file())


def run(case: Path, work: Path) -> dict[str, bytes]:
    """Run one case in the empty directory ``work``; expected file name -> bytes."""
    from tropcurve.cli import main

    if (case / "in").is_dir():
        shutil.copytree(case / "in", work, dirs_exist_ok=True)
    before = {p: p.read_bytes() for p in work.rglob("*") if p.is_file()}
    argv = json.loads((case / "argv.json").read_text())
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps usage and help to this width
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    result = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode(),
              "exit": f"{code}\n".encode()}
    for p in sorted(work.rglob("*")):
        if p.is_file() and before.get(p) != p.read_bytes():
            result[f"files/{p.relative_to(work).as_posix()}"] = p.read_bytes()
    return result


def expected(case: Path) -> dict[str, bytes]:
    out = case / "out"
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def update(case: Path) -> bool:
    """Rewrite ``case/out``; True when anything changed."""
    with tempfile.TemporaryDirectory() as tmp:
        result = run(case, Path(tmp))
    if result == expected(case):
        return False
    shutil.rmtree(case / "out", ignore_errors=True)
    for name, data in result.items():
        path = case / "out" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return True


def main(names: list[str]) -> int:
    chosen = [c for c in cases() if not names or c.name in names]
    unknown = set(names) - {c.name for c in chosen}
    if unknown:
        print(f"unknown cases: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    for case in chosen:
        if update(case):
            print(f"changed {case.name}")
    print(f"{len(chosen)} cases checked")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

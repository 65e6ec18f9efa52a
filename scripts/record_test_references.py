#!/usr/bin/env python3
"""Re-record tests/reference/, the CSVs that tests/test_references.py pins.

Usage: python3 scripts/record_test_references.py

Runs every experiment at the test's seeds and small settings, writes each CSV
into tests/reference/, and prints the name of every file it added or
changed.  Run it only for a change meant to alter output, and list each
printed file with its reason in CHANGES.md.
"""

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_references import REFERENCE, run_all  # noqa: E402


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):  # the summary echo
            names = run_all(tmp)
        for name in names:
            new, old = Path(tmp) / name, REFERENCE / name
            if not old.is_file() or old.read_bytes() != new.read_bytes():
                shutil.copyfile(new, old)
                print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every experiment writes the bytes it wrote when its reference was recorded.

Each of the 13 registered experiments runs through `cli.main` at seeds 0 and
1, at the small settings of test_reachability's `SMALL`, and each CSV must
equal its file in tests/reference/ byte for byte.  Small settings do not take
every branch that the defaults take, so comparing a full run of
scripts/run_all_experiments.py across two checkouts stays the complete
check; this is the floor under it.

Re-record with `python3 scripts/record_test_references.py`, and only for a
change meant to alter output: list each re-recorded file and why in
CHANGES.md.
"""

from pathlib import Path

from smoothconvex import cli

from test_reachability import SMALL

REFERENCE = Path(__file__).resolve().parent / "reference"
SEEDS = (0, 1)


def run_all(outdir) -> list:
    """Run every experiment at each seed into outdir; the CSV names written."""
    seeds = ",".join(map(str, SEEDS))
    names = []
    for name, args in SMALL.items():
        rc = cli.main(["run", name, "--seed", seeds, "--out", str(outdir), *args])
        if rc != cli.EXIT_OK:
            raise RuntimeError(f"{name} exited {rc}")
        names += [f"{name}_{seed}.csv" for seed in SEEDS]
    return names


def test_every_experiment_matches_its_reference(tmp_path):
    differ = [name for name in run_all(tmp_path)
              if not (REFERENCE / name).is_file()
              or (tmp_path / name).read_bytes() != (REFERENCE / name).read_bytes()]
    assert not differ, "differs from tests/reference/: " + ", ".join(differ)

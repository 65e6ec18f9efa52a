"""The README's library examples run as written."""

import math
import re
import shlex
from pathlib import Path

from smoothconvex.cli import resolve_params

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_blocks() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_use_examples_run(tmp_path, monkeypatch, capsys):
    blocks = library_use_blocks()
    assert len(blocks) == 2
    rows = ["+1 1:0.8 2:0.1", "-1 1:-0.5 3:0.9", "+1 2:0.7 3:0.2", "-1 1:-0.9 2:-0.3",
            "+1 1:0.4 2:0.6 3:-0.1", "-1 2:-0.8 3:0.5", "+1 1:1.0 3:0.3", "-1 1:-0.2 2:-0.6"]
    (tmp_path / "train.libsvm").write_text("\n".join(rows) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.split()
    # the first block prints suboptimality and two oracle counts, the second a regret
    assert len(printed) == 4
    suboptimality, calls_full, calls_stochastic, regret = printed
    # the reference's certificate is 1.9e-11 after all 100k steps (ROADMAP item 9)
    assert -1e-9 <= float(suboptimality) < 1e-2
    assert (int(calls_full), int(calls_stochastic)) == (8, 8 * 2000)
    assert math.isfinite(float(regret))


def test_cli_examples_resolve():
    """Every `smoothconvex run <experiment> --key=value` line of the CLI
    section names keys and values that the registry accepts."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1].split("\n## ", 1)[0]
    lines = re.findall(r"^smoothconvex run (\w+)(.*)$", section, flags=re.M)
    assert len(lines) == 2
    for experiment, rest in lines:
        overrides = dict(arg[2:].split("=", 1) for arg in shlex.split(rest)
                         if arg.startswith("--") and "=" in arg)
        resolve_params(experiment, overrides)

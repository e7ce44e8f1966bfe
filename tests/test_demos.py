"""Every demo runs to completion and prints the same bytes.

Each demo is run as its own process, as a reader would run it; the pin is
the exit code and the sha256 of its stdout. `median_bound_sweep.py` also
guards `worst_ratio_search` and `sp_scan` end to end. The README's library
quick start is run too, and its printed lines are pinned.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    "lower_bound_certificate.py": "76023476ed02c44aa3c447b21412fa780ea68d3b5d66221b4120ff2786a29125",
    "mechanism_tour.py": "3ce37ce2f042f619b2ef870d31e3a31c0f1d72cba992d9ec7312da7a6fa4517c",
    "median_bound_sweep.py": "83c00f98c77ac7c8d64e2867dc1e3b3a5b2284e398cf740ad3cae5ff822f40fb",
    "two_agent_frontier.py": "e349a5e8b41422ac72d52666706f5b706694ffad329fac416042147feaf32708",
}


def test_every_demo_is_pinned():
    assert sorted(DEMOS) == sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_stdout(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMOS[name]


def test_readme_quick_start_prints_its_pinned_lines(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == [
        "[(0.4, 1.0)]",
        "1.0561177090573832",
        "-1.0 0.5",
        "0.09999999999999998",
        "0.35754829169891866 1.3773768092948222",
    ]
    # a print's trailing comment opens with the line it prints
    calls = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(calls) == len(printed)
    for call, line in zip(calls, printed):
        if "# " in call:
            assert call.split("# ", 1)[1].startswith(line), call

"""The same command line gives the same bytes under another numpy CPU dispatch.

numpy picks SIMD kernels by the host's CPU features, and some of them
round differently: on an AVX512 host `np.power(x, 1.3)` differs from
Python's `x ** 1.3` on about 5% of uniform inputs, and on none with the
features below disabled. So one child process reruns every pinned command
of `test_cli_golden.py` and `test_cli.py::TestOutputBytes` with
NPY_DISABLE_CPU_FEATURES set, and its exit codes and stdout digests must
equal the pins. A feature the host lacks is ignored by numpy.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import test_cli
import test_cli_golden

DISABLED = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"

CHILD = """
import contextlib, hashlib, io, json, sys
from lpfacility.cli import main
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out.append([code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()])
print(json.dumps(out))
"""


def pinned_commands():
    # the module, not the class, is imported, so pytest does not collect the class twice
    pinned = test_cli.TestOutputBytes.test_stdout_is_pinned
    (mark,) = [m for m in pinned.pytestmark if m.name == "parametrize"]
    return [tuple(case) for case in test_cli_golden.GOLDEN] + [tuple(case) for case in mark.args[1]]


def test_pinned_digests_hold_with_simd_features_disabled():
    pins = pinned_commands()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": DISABLED, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps([argv for argv, _, _ in pins]),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[code, digest] for _, code, digest in pins]

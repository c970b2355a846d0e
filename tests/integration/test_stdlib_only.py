"""The library is stdlib-only: importing it must not pull in numpy.

Checked in a fresh interpreter so modules other tests imported do not
leak into ``sys.modules``.
"""

import os
import subprocess
import sys

import repro


def test_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys\n"
        "import repro, repro.eval.runner, repro.analysis.lint\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    assert out.strip() == "False"

"""The library runs on numpy alone.

scipy is only the test-side oracle of the in-repo PCHIP
(``tests/synth/test_curve_cache.py``). A fresh interpreter that refuses
every scipy import must still import every module under ``repro``,
synthesize a curve and train, without loading a scipy module on the way.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCIPY_BLOCKED = """
import contextlib, importlib, io, pkgutil, sys

sys.modules["scipy"] = None  # every `import scipy...` now raises ImportError

import repro
from repro.cli import main

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
for argv in (["synth", "sklansky", "16"], ["train", "6", "--steps", "20", "--seed", "0"]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0, argv
    assert out.getvalue(), argv
assert sys.modules["scipy"] is None
print(sorted(name for name in sys.modules if name.startswith("scipy") and name != "scipy"))
"""


def test_the_library_imports_and_runs_with_scipy_blocked():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

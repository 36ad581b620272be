"""ncerm's runtime needs numpy only: no module may import scipy."""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # every later `import scipy...` raises ImportError

import numpy as np
import ncerm
for info in pkgutil.iter_modules(ncerm.__path__):
    importlib.import_module(f"ncerm.{info.name}")

from ncerm import cli
from ncerm.losses import logistic_sigmoid
from ncerm.networks import Activation

x = np.linspace(-3.0, 3.0, 13)
erf = Activation("erf")
assert np.all(np.isfinite(erf.value(x))) and np.all(np.isfinite(erf.deriv(x)))
h = logistic_sigmoid(2.0)
assert np.all(np.isfinite(h.value(x))) and np.all(np.isfinite(h.grad(x)))
code = cli.main(["nn", "--activation", "erf", "--n", "20", "--d", "3",
                 "--budget-rounds", "2", "--refine-steps", "3", "--seed", "1"])
assert code == 0, code
"""


def test_runtime_path_imports_no_scipy():
    path = filter(None, [str(_SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rep,"), proc.stdout

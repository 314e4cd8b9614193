"""Importing the package stays lean: no scipy until a code path needs it.

``scipy.stats`` alone accounts for most of a process's import time and
resident memory, and only three code paths use scipy at all — the
float64 sigmoid (``expit``), LOF's ``cKDTree`` and the normal quantile of
ratio estimation (``ndtri``).  Each imports it where it runs, so a fresh
interpreter that imports the serving stack never loads it.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import repro, repro.core, repro.streaming, repro.serving, repro.runtime
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))

import numpy as np
from repro.baselines import LocalOutlierFactor
from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
from repro.nn import inference_precision
rng = np.random.default_rng(0)
series = rng.standard_normal((120, 2))
lof = LocalOutlierFactor(n_neighbors=5).fit(series)
print(lof.score(series).shape)
ensemble = CAEEnsemble(CAEConfig(input_dim=2, embed_dim=8, window=8,
                                 n_layers=1),
                       EnsembleConfig(n_models=2, epochs_per_model=1,
                                      max_training_windows=32))
ensemble.fit(series)
with inference_precision(np.float64):
    fused = ensemble.window_scores(series, fused=True)
reference = ensemble.window_scores(series, fused=False)
print(bool(np.array_equal(fused, reference)))
"""


def test_import_loads_no_scipy_and_scipy_paths_still_work():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    completed = subprocess.run([sys.executable, "-c", PROBE], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    loaded, lof_shape, bit_identical = completed.stdout.splitlines()
    assert loaded == "[]", f"import loaded scipy modules: {loaded}"
    assert lof_shape == "(120,)"
    assert bit_identical == "True"

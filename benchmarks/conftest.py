"""Benchmark configuration: a CPU-friendly budget and artifact persistence.

Every benchmark regenerates one paper artifact (table or figure) on the
``BENCH`` budget, asserts the *shape* of the result (who wins, what trends
hold) and writes the rendering to ``benchmarks/output/<artifact>.txt`` so
the regenerated tables can be inspected and diffed.
"""

import os

import pytest

from repro.experiments import Budget

# Scaled so the full benchmark suite finishes in CPU minutes while still
# training every model on every required dataset.
BENCH = Budget(name="bench", dataset_scale=0.2, epochs=2, n_models=2,
               max_training_windows=256, embed_dim=16, n_layers=2,
               hidden_size=16)

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


@pytest.fixture(scope="session")
def artifact_dir():
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def save_artifact(artifact_dir):
    def _save(name: str, rendering: str) -> str:
        path = os.path.join(artifact_dir, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(rendering + "\n")
        return path
    return _save


@pytest.fixture
def bench_budget():
    return BENCH

"""End-to-end integration tests: the paper's qualitative claims on planted
data, the full pipeline, and the experiment CLI."""

import subprocess
import sys

import numpy as np
import pytest

from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
from repro.metrics import accuracy_report, roc_auc
from repro.nn import inference_precision
from tests.conftest import make_planted_dataset


@pytest.fixture(scope="module")
def planted():
    return make_planted_dataset(length=600, dims=3, n_outliers=24)


@pytest.fixture(scope="module")
def fitted_ensemble(planted):
    cae = CAEConfig(input_dim=3, embed_dim=16, window=8, n_layers=2)
    config = EnsembleConfig(n_models=3, epochs_per_model=2, batch_size=64,
                            max_training_windows=400, seed=0)
    return CAEEnsemble(cae, config).fit(planted.train)


class TestEndToEndDetection:
    def test_high_roc_on_planted_outliers(self, planted, fitted_ensemble):
        scores = fitted_ensemble.score(planted.test)
        assert roc_auc(planted.test_labels, scores) > 0.9

    def test_report_beats_random_baseline(self, planted, fitted_ensemble):
        scores = fitted_ensemble.score(planted.test)
        report = accuracy_report(planted.test_labels, scores)
        random_scores = np.random.default_rng(0).random(scores.shape)
        random_report = accuracy_report(planted.test_labels, random_scores)
        assert report.f1 > 2 * random_report.f1
        assert report.pr_auc > 2 * random_report.pr_auc

    def test_ensemble_at_least_as_good_as_worst_member(self, planted,
                                                       fitted_ensemble):
        """Median aggregation should not be dominated by its worst model."""
        full = roc_auc(planted.test_labels,
                       fitted_ensemble.score(planted.test))
        singles = [roc_auc(planted.test_labels,
                           fitted_ensemble.score(planted.test, n_models=1))]
        assert full >= min(singles) - 0.05

    def test_detect_at_true_ratio_flags_real_outliers(self, planted,
                                                      fitted_ensemble):
        predictions = fitted_ensemble.detect(planted.test,
                                             ratio=planted.outlier_ratio)
        hits = int(np.sum(predictions * planted.test_labels))
        assert hits >= 0.5 * planted.test_labels.sum()

    def test_embedding_mode_also_detects(self, planted):
        """The paper-literal Eq. 14 target (embedding space) must work too."""
        cae = CAEConfig(input_dim=3, embed_dim=16, window=8, n_layers=1,
                        reconstruct="embedding")
        config = EnsembleConfig(n_models=2, epochs_per_model=2,
                                max_training_windows=300, seed=0)
        ensemble = CAEEnsemble(cae, config).fit(planted.train)
        scores = ensemble.score(planted.test)
        assert roc_auc(planted.test_labels, scores) > 0.7


class TestStreamingConsistency:
    def test_streaming_scores_replicate_batch(self, planted,
                                              fitted_ensemble):
        """Online one-window-at-a-time scoring equals the offline path:
        exactly in float64.  In float32 both run the same suffix decoder
        after the first window, so they agree exactly there too; the head
        window's last column is decoded at full width (within 1e-5)."""
        w = fitted_ensemble.cae_config.window
        with inference_precision(np.float64):
            exact = fitted_ensemble.score(planted.test)
        batch = fitted_ensemble.score(planted.test)
        for i in range(w - 1, w + 20):
            window = planted.test[i - w + 1:i + 1]
            with inference_precision(np.float64):
                assert fitted_ensemble.score_window(window) == exact[i]
            if i >= w:
                assert fitted_ensemble.score_window(window) == batch[i]
            else:
                np.testing.assert_allclose(
                    fitted_ensemble.score_window(window), batch[i],
                    rtol=1e-5)


class TestExperimentCLI:
    def test_list_command(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "list"],
            capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0
        assert "table3" in completed.stdout
        assert "figure17" in completed.stdout

    def test_unknown_experiment_fails(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "tableX"],
            capture_output=True, text=True, timeout=120)
        assert completed.returncode != 0

    def test_out_file_written(self, tmp_path):
        out = tmp_path / "t6.txt"
        completed = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "table6",
             "--budget", "fast", "--quiet", "--out", str(out)],
            capture_output=True, text=True, timeout=600)
        assert completed.returncode == 0, completed.stderr
        assert out.exists()
        assert "DIV_F" in out.read_text()

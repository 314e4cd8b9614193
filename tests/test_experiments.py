"""Experiment harness: budgets, detector construction, reporting, registry."""

import numpy as np
import pytest

from repro.experiments import (BUDGETS, Budget, EXPERIMENTS,
                               EXPERIMENT_DESCRIPTIONS, FAST, MODEL_ORDER,
                               build_detector, dataset_hyperparameters,
                               format_series, format_table, overall_average,
                               run_detector, run_matrix)
from repro.baselines import OutlierDetector
from repro.datasets import load_dataset

MICRO = Budget(name="micro", dataset_scale=0.1, epochs=1, n_models=2,
               max_training_windows=96, embed_dim=12, n_layers=1,
               hidden_size=12)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["Model", "F1"], [["CAE", 0.5], ["RAE", 0.25]])
        lines = text.splitlines()
        assert lines[0].startswith("Model")
        assert "0.5000" in text and "0.2500" in text
        assert len(lines) == 4     # header, rule, two rows

    def test_format_table_title(self):
        text = format_table(["A"], [[1.0]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_format_series_columns(self):
        text = format_series("K", [1, 2], {"P": [0.1, 0.2],
                                           "R": [0.3, 0.4]})
        assert "K" in text and "P" in text and "R" in text
        assert "0.4000" in text


class TestBudgets:
    def test_registry_contains_named_presets(self):
        assert {"fast", "standard", "full"} <= set(BUDGETS)

    def test_scaled_epochs_floor(self):
        assert FAST.scaled_epochs(0.01) == 1

    def test_hyperparameters_fall_back_to_ecg(self):
        assert dataset_hyperparameters("unknown") == \
            dataset_hyperparameters("ecg")


class TestBuildDetector:
    @pytest.mark.parametrize("model_name", MODEL_ORDER)
    def test_constructs_every_model(self, model_name):
        dataset = load_dataset("ecg", scale=0.1)
        detector = build_detector(model_name, dataset, MICRO)
        assert isinstance(detector, OutlierDetector)

    def test_unknown_model_raises(self):
        dataset = load_dataset("ecg", scale=0.1)
        with pytest.raises(KeyError):
            build_detector("BOGUS", dataset, MICRO)

    def test_window_capped_for_short_series(self):
        dataset = load_dataset("ecg", scale=0.1)    # 400 observations
        detector = build_detector("CAE-Ensemble", dataset, MICRO)
        detector.fit(dataset.train)
        assert detector.ensemble.cae_config.window <= \
            dataset.train.shape[0] // 8


class TestRunner:
    def test_run_detector_produces_report(self):
        dataset = load_dataset("ecg", scale=0.1)
        result = run_detector("MAS", dataset, MICRO)
        assert result.model == "MAS"
        assert result.dataset == "ecg"
        assert 0.0 <= result.report.f1 <= 1.0
        assert result.train_seconds >= 0.0
        assert result.scores is None

    def test_keep_scores(self):
        dataset = load_dataset("ecg", scale=0.1)
        result = run_detector("MAS", dataset, MICRO, keep_scores=True)
        assert result.scores.shape == (dataset.test.shape[0],)

    def test_run_matrix_structure(self):
        results = run_matrix(["MAS", "ISF"], ["ecg"], MICRO)
        assert set(results) == {"ecg"}
        assert set(results["ecg"]) == {"MAS", "ISF"}

    def test_overall_average(self):
        results = run_matrix(["MAS"], ["ecg", "smap"], MICRO)
        overall = overall_average(results)
        expected_f1 = np.mean([results["ecg"]["MAS"].report.f1,
                               results["smap"]["MAS"].report.f1])
        assert overall["MAS"].f1 == pytest.approx(expected_f1)

    def test_overall_average_empty(self):
        assert overall_average({}) == {}

    def test_progress_callback_invoked(self):
        messages = []
        run_matrix(["MAS"], ["ecg"], MICRO, progress=messages.append)
        assert messages == ["MAS on ecg"]


class TestRegistry:
    def test_all_eleven_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "table3", "table4", "table5", "table6", "table7", "table8",
            "figure13", "figure14", "figure15", "figure16", "figure17"}

    def test_descriptions_cover_registry(self):
        assert set(EXPERIMENT_DESCRIPTIONS) == set(EXPERIMENTS)


class TestMicroExperiments:
    """Each artifact generator must run end-to-end on a micro budget and
    return a well-formed TableResult.  (Accuracy is not asserted here —
    the benchmarks assert shapes on realistic budgets.)"""

    def test_table5_structure(self):
        result = EXPERIMENTS["table5"](budget=MICRO, datasets=("ecg",))
        assert "No attention" in result.data["ecg"]
        assert "CAE-Ensemble" in result.rendering

    def test_table6_structure(self):
        result = EXPERIMENTS["table6"](budget=MICRO, datasets=("ecg",))
        measurements = result.data["ecg"]
        assert set(measurements) == {"No Diversity", "CAE-Ensemble"}
        assert all(v >= 0 for v in measurements.values())

    def test_table8_structure(self):
        result = EXPERIMENTS["table8"](budget=MICRO, datasets=("ecg",),
                                       n_probe_windows=5)
        assert result.data["CAE"]["ecg"] > 0.0
        assert result.data["CAE-Ensemble"]["ecg"] > 0.0

    def test_figure13_structure(self):
        result = EXPERIMENTS["figure13"](budget=MICRO, datasets=("ecg",),
                                         k_values=(2, 5, 10))
        data = result.data["ecg"]
        assert data["k"] == [2, 5, 10]
        assert len(data["Recall@K"]) == 3
        # Recall at top-K is monotone non-decreasing in K.
        assert data["Recall@K"] == sorted(data["Recall@K"])

    def test_figure16_structure(self):
        result = EXPERIMENTS["figure16"](budget=MICRO, datasets=("ecg",),
                                         max_models=2)
        data = result.data["ecg"]
        assert data["n_models"] == [1, 2]
        assert len(data["PR"]) == 2

    def test_figure17_structure(self):
        result = EXPERIMENTS["figure17"](budget=MICRO, datasets=("ecg",),
                                         kernel_sizes=(3, 5))
        data = result.data["ecg"]
        assert data["kernel_sizes"] == [3, 5]
        assert len(data["F1"]) == 2

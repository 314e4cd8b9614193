"""The five named datasets must match the paper's shapes exactly."""

import numpy as np
import pytest

from repro.datasets import (DATASET_NAMES, PAPER_DIMS, PAPER_OUTLIER_RATIOS,
                            load_dataset)


class TestRegistryContract:
    def test_all_five_present(self):
        assert set(DATASET_NAMES) == {"ecg", "smd", "msl", "smap", "wadi"}

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_dimensionality_matches_paper(self, name):
        dataset = load_dataset(name, scale=0.25)
        assert dataset.dims == PAPER_DIMS[name]

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_outlier_ratio_close_to_paper(self, name):
        dataset = load_dataset(name)
        actual = dataset.test_labels.mean()
        assert abs(actual - PAPER_OUTLIER_RATIOS[name]) < 0.02, \
            f"{name}: {actual} vs {PAPER_OUTLIER_RATIOS[name]}"

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_validates(self, name):
        load_dataset(name, scale=0.25).validate()

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_deterministic(self, name):
        a = load_dataset(name, scale=0.25)
        b = load_dataset(name, scale=0.25)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)
        np.testing.assert_array_equal(a.test_labels, b.test_labels)

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_seed_changes_draw(self, name):
        a = load_dataset(name, seed=1, scale=0.25)
        b = load_dataset(name, seed=2, scale=0.25)
        assert not np.array_equal(a.test, b.test)

    def test_scale_changes_length(self):
        small = load_dataset("smd", scale=0.25)
        large = load_dataset("smd", scale=0.5)
        assert large.train.shape[0] == 2 * small.train.shape[0]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_dataset("nonexistent")

class TestDatasetSemantics:
    def test_ecg_train_equals_test(self):
        """Paper protocol: ECG uses the same set for training and testing."""
        dataset = load_dataset("ecg", scale=0.5)
        np.testing.assert_array_equal(dataset.train, dataset.test)

    def test_ecg_train_is_separate_array(self):
        dataset = load_dataset("ecg", scale=0.5)
        dataset.train[0, 0] += 1.0
        assert dataset.train[0, 0] != dataset.test[0, 0]

    @pytest.mark.parametrize("name", ["smd", "msl", "smap", "wadi"])
    def test_train_test_disjoint(self, name):
        dataset = load_dataset(name, scale=0.25)
        assert dataset.train.shape[0] != dataset.test.shape[0] or \
            not np.array_equal(dataset.train, dataset.test)

    def test_wadi_interval_labels(self):
        """WADI anomalies are contiguous intervals, not isolated points."""
        dataset = load_dataset("wadi", scale=0.5)
        labels = dataset.test_labels
        # Longest run of 1s should be much longer than one observation.
        runs, current = [], 0
        for value in labels:
            current = current + 1 if value else 0
            runs.append(current)
        assert max(runs) >= 10

    def test_outliers_have_larger_scores_under_simple_detector(self):
        """The planted anomalies must be detectable in principle: squared
        deviation from the train mean separates classes on average."""
        dataset = load_dataset("smd", scale=0.5)
        mu = dataset.train.mean(axis=0)
        sigma = dataset.train.std(axis=0) + 1e-9
        z = (((dataset.test - mu) / sigma) ** 2).sum(axis=1)
        outlier_mean = z[dataset.test_labels == 1].mean()
        inlier_mean = z[dataset.test_labels == 0].mean()
        assert outlier_mean > inlier_mean

    def test_validate_catches_bad_labels(self):
        dataset = load_dataset("ecg", scale=0.25)
        dataset.test_labels[0] = 2
        with pytest.raises(ValueError):
            dataset.validate()

    def test_validate_catches_misaligned_labels(self):
        dataset = load_dataset("ecg", scale=0.25)
        bad = dataset.__class__(dataset.name, dataset.train, dataset.test,
                                dataset.test_labels[:-1],
                                dataset.outlier_ratio)
        with pytest.raises(ValueError):
            bad.validate()

"""Metric implementations vs hand-computed and brute-force references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (AccuracyReport, accuracy_report, apply_threshold,
                           best_f1_threshold, confusion_counts,
                           evaluate_at_ratio, evaluate_top_k, f1_score,
                           pr_auc, precision_recall_curve, precision_recall_f1,
                           precision_score, recall_score, roc_auc,
                           top_k_threshold)


class TestConfusion:
    def test_hand_computed(self):
        labels = np.array([1, 1, 0, 0, 1])
        preds = np.array([1, 0, 0, 1, 1])
        c = confusion_counts(labels, preds)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 1, 1)
        assert c.total == 5

    def test_prf_values(self):
        labels = np.array([1, 1, 0, 0, 1])
        preds = np.array([1, 0, 0, 1, 1])
        assert precision_score(labels, preds) == pytest.approx(2 / 3)
        assert recall_score(labels, preds) == pytest.approx(2 / 3)
        assert f1_score(labels, preds) == pytest.approx(2 / 3)

    def test_prf_tuple_consistent(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 50)
        preds = rng.integers(0, 2, 50)
        p, r, f = precision_recall_f1(labels, preds)
        assert p == pytest.approx(precision_score(labels, preds))
        assert r == pytest.approx(recall_score(labels, preds))
        assert f == pytest.approx(f1_score(labels, preds))

    def test_zero_division_safe(self):
        labels = np.array([0, 0, 1])
        preds = np.array([0, 0, 0])
        assert precision_score(labels, preds) == 0.0
        assert recall_score(labels, preds) == 0.0
        assert f1_score(labels, preds) == 0.0

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            confusion_counts(np.array([0, 2]), np.array([0, 1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion_counts(np.array([0, 1]), np.array([0, 1, 1]))


class TestROC:
    def test_perfect_ranking(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc(labels, scores) == 1.0

    def test_inverted_ranking(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert roc_auc(labels, scores) == 0.0

    def test_all_tied_is_half(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.ones(4)
        assert roc_auc(labels, scores) == pytest.approx(0.5)

    def test_hand_computed(self):
        # Ranking: 0.9(1) 0.8(0) 0.7(1) 0.6(0): AUC = 3/4 of pairs ranked right.
        labels = np.array([1, 0, 1, 0])
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        assert roc_auc(labels, scores) == pytest.approx(0.75)

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([1, 1]), np.array([0.1, 0.2]))

    @given(n=st.integers(5, 60))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, n):
        rng = np.random.default_rng(n)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0], labels[1] = 0, 1
        scores = rng.random(n)
        a = roc_auc(labels, scores)
        b = roc_auc(labels, np.exp(3 * scores))     # strictly monotone map
        assert a == pytest.approx(b)

    @given(n=st.integers(5, 60))
    @settings(max_examples=30, deadline=None)
    def test_matches_pairwise_definition(self, n):
        rng = np.random.default_rng(n + 1000)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0], labels[1] = 0, 1
        scores = rng.normal(size=n).round(1)        # force some ties
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert roc_auc(labels, scores) == pytest.approx(expected)


class TestPR:
    def test_perfect(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert pr_auc(labels, scores) == pytest.approx(1.0)

    def test_hand_computed_average_precision(self):
        # Ranking: 1, 0, 1 → AP = (1/1)*0.5 + (2/3)*0.5 = 0.8333…
        labels = np.array([1, 0, 1])
        scores = np.array([0.9, 0.8, 0.7])
        assert pr_auc(labels, scores) == pytest.approx(5 / 6)

    def test_random_scores_near_prevalence(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(20000) < 0.1).astype(int)
        scores = rng.random(20000)
        assert abs(pr_auc(labels, scores) - 0.1) < 0.02

    def test_requires_positives(self):
        with pytest.raises(ValueError):
            pr_auc(np.zeros(5, dtype=int), np.arange(5.0))

    def test_curve_shapes(self):
        labels = np.array([0, 1, 1, 0, 1])
        scores = np.array([0.1, 0.9, 0.8, 0.5, 0.4])
        precision, recall, thresholds = precision_recall_curve(labels, scores)
        assert precision.shape == recall.shape == thresholds.shape
        assert recall[-1] == 1.0


class TestBestF1:
    @given(n=st.integers(5, 40))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        labels = rng.integers(0, 2, n)
        if labels.sum() == 0:
            labels[0] = 1
        scores = rng.random(n).round(2)             # force ties
        best = best_f1_threshold(labels, scores)
        brute = 0.0
        for threshold in np.unique(scores):
            predictions = (scores > threshold - 1e-12).astype(int)
            brute = max(brute, f1_score(labels, predictions))
        assert best.f1 == pytest.approx(brute, abs=1e-9)

    def test_threshold_is_usable(self):
        labels = np.array([0, 0, 1, 1, 0])
        scores = np.array([0.1, 0.2, 0.9, 0.8, 0.3])
        best = best_f1_threshold(labels, scores)
        predictions = apply_threshold(scores, best.threshold)
        assert f1_score(labels, predictions) == pytest.approx(best.f1)

    def test_no_positives(self):
        result = best_f1_threshold(np.zeros(4, dtype=int), np.arange(4.0))
        assert result.f1 == 0.0


class TestTopK:
    def test_top_k_selects_exact_count(self):
        scores = np.arange(100.0)
        threshold = top_k_threshold(scores, 10.0)
        assert (scores > threshold).sum() == 10

    def test_top_k_with_ties(self):
        scores = np.array([1.0, 1.0, 1.0, 5.0])
        threshold = top_k_threshold(scores, 25.0)
        assert (scores > threshold).sum() == 1

    def test_invalid_percent(self):
        with pytest.raises(ValueError):
            top_k_threshold(np.arange(5.0), 0.0)
        with pytest.raises(ValueError):
            top_k_threshold(np.arange(5.0), 150.0)

    def test_evaluate_top_k_perfect_at_true_ratio(self):
        labels = np.zeros(100, dtype=int)
        labels[:10] = 1
        scores = np.where(labels == 1, 2.0, 1.0) + \
            np.linspace(0, 0.1, 100)
        result = evaluate_top_k(labels, scores, 10.0)
        assert result.recall == pytest.approx(1.0)
        assert result.precision == pytest.approx(1.0)

    def test_evaluate_at_ratio_equivalent(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, 50)
        scores = rng.random(50)
        a = evaluate_at_ratio(labels, scores, 0.1)
        b = evaluate_top_k(labels, scores, 10.0)
        assert a == b


class TestAccuracyReport:
    def test_report_fields(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, 100)
        scores = labels + rng.normal(0, 0.3, 100)
        report = accuracy_report(labels, scores)
        assert isinstance(report, AccuracyReport)
        assert 0.0 <= report.f1 <= 1.0
        assert report.roc_auc > 0.8        # informative scores
        assert set(report.as_dict()) == {"precision", "recall", "f1", "pr",
                                         "roc"}

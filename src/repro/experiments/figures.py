"""Regeneration of every figure in the paper's evaluation (Figures 13-17).

Each ``figure_N`` function produces the *data series* behind the figure —
the harness is terminal-first, so figures are rendered as aligned value
tables (x column plus one column per curve) rather than plots.  The
qualitative trend each figure must exhibit is recorded in
``paper_values.PAPER_FIGURE_TRENDS`` and checked in EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..core.config import CAEConfig, EnsembleConfig
from ..core.ensemble import CAEEnsemble
from ..datasets import load_dataset
from ..metrics import accuracy_report, evaluate_top_k, pr_auc, roc_auc
from .paper_values import PAPER_FIGURE_TRENDS
from .reporting import format_series
from .runner import Budget, STANDARD, dataset_hyperparameters
from .tables import TableResult


def _fit_ensemble(dataset, budget: Budget, seed: int,
                  window: Optional[int] = None,
                  diversity_weight: Optional[float] = None,
                  transfer_fraction: Optional[float] = None,
                  n_models: Optional[int] = None,
                  kernel_size: int = 3) -> CAEEnsemble:
    """CAE-Ensemble with paper hyperparameters unless overridden."""
    params = dataset_hyperparameters(dataset.name)
    window = window if window is not None else int(params["window"])
    window = max(4, min(window, dataset.train.shape[0] // 8,
                        dataset.test.shape[0] // 2))
    cae = CAEConfig(input_dim=dataset.dims, embed_dim=budget.embed_dim,
                    window=window, n_layers=budget.n_layers,
                    kernel_size=kernel_size)
    config = EnsembleConfig(
        n_models=n_models if n_models is not None else budget.n_models,
        epochs_per_model=budget.epochs,
        diversity_weight=(diversity_weight if diversity_weight is not None
                          else float(params["lambda"])),
        transfer_fraction=(transfer_fraction if transfer_fraction is not None
                           else float(params["beta"])),
        max_training_windows=budget.max_training_windows, seed=seed)
    return CAEEnsemble(cae, config).fit(dataset.train)


# ----------------------------------------------------------------------
# Figure 13 — threshold sensitivity at top-K %
# ----------------------------------------------------------------------
def figure_13(budget: Budget = STANDARD, seed: int = 0,
              datasets: Sequence[str] = ("ecg", "smap"),
              k_values: Optional[Sequence[float]] = None,
              progress=None) -> TableResult:
    """Precision/Recall/F1 when flagging the top-K % scores, K sweep."""
    data: Dict = {}
    sections: List[str] = []
    for dataset_name in datasets:
        if progress:
            progress(f"figure13 on {dataset_name}")
        dataset = load_dataset(dataset_name, scale=budget.dataset_scale)
        ks = list(k_values) if k_values is not None else \
            [1, 2, 3, 5, 8, 10, 12, 15, 20]
        ensemble = _fit_ensemble(dataset, budget, seed)
        scores = ensemble.score(dataset.test)
        series = {"Precision@K": [], "Recall@K": [], "F1@K": []}
        for k in ks:
            result = evaluate_top_k(dataset.test_labels, scores, k)
            series["Precision@K"].append(result.precision)
            series["Recall@K"].append(result.recall)
            series["F1@K"].append(result.f1)
        data[dataset_name] = {"k": ks, **series,
                              "true_ratio_percent":
                                  dataset.outlier_ratio * 100.0}
        sections.append(format_series(
            "K%", ks, series,
            title=f"[figure13] {dataset_name.upper()} top-K threshold "
                  f"sensitivity (true ratio "
                  f"{dataset.outlier_ratio * 100:.1f}%)"))
    sections.append(f"Paper trend: {PAPER_FIGURE_TRENDS['figure13']}")
    return TableResult("figure13", data, "\n\n".join(sections))


# ----------------------------------------------------------------------
# Figure 14 — hyperparameter selection for beta and lambda
# ----------------------------------------------------------------------
def _candidate_sweep(dataset, budget: Budget, seed: int, parameter: str,
                     values: Sequence[float]) -> Dict:
    """Train one ensemble per candidate; record validation reconstruction
    error (the unsupervised signal) and PR/ROC (labels, reporting only)."""
    from ..datasets.preprocess import train_validation_split
    train, validation = train_validation_split(dataset.train, 0.3)
    records = []
    for i, value in enumerate(values):
        overrides = {"diversity_weight": float(value)} \
            if parameter == "lambda" else \
            {"transfer_fraction": float(value)}
        # Fit on the reduced train split so validation error is honest.
        sub_dataset = dataclasses.replace(dataset, train=train)
        ensemble = _fit_ensemble(sub_dataset, budget, seed + i, **overrides)
        recon = ensemble.validation_reconstruction_error(validation)
        scores = ensemble.score(dataset.test)
        records.append({
            "value": float(value),
            "reconstruction_error": recon,
            "pr": pr_auc(dataset.test_labels, scores),
            "roc": roc_auc(dataset.test_labels, scores)})
    records.sort(key=lambda r: r["reconstruction_error"])
    median_index = (len(records) - 1) // 2
    return {"records": records, "median_index": median_index,
            "median_value": records[median_index]["value"]}


def figure_14(budget: Budget = STANDARD, seed: int = 0,
              datasets: Sequence[str] = ("ecg", "smap"),
              beta_values: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
              lambda_values: Sequence[float] = (1, 2, 8, 16, 64),
              progress=None) -> TableResult:
    """Error-ordered candidate curves for β and λ with the median marked."""
    data: Dict = {}
    sections: List[str] = []
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=budget.dataset_scale)
        data[dataset_name] = {}
        for parameter, values in (("beta", beta_values),
                                  ("lambda", lambda_values)):
            if progress:
                progress(f"figure14 {parameter} on {dataset_name}")
            sweep = _candidate_sweep(dataset, budget, seed, parameter,
                                     values)
            data[dataset_name][parameter] = sweep
            records = sweep["records"]
            series = {
                "recon_error": [r["reconstruction_error"] for r in records],
                "PR": [r["pr"] for r in records],
                "ROC": [r["roc"] for r in records]}
            labels = [f"{r['value']:g}" +
                      ("*" if i == sweep["median_index"] else "")
                      for i, r in enumerate(records)]
            sections.append(format_series(
                f"{parameter} (err-ordered, *=median pick)", labels, series,
                title=f"[figure14] {dataset_name.upper()} {parameter} "
                      f"selection"))
    sections.append(f"Paper trend: {PAPER_FIGURE_TRENDS['figure14']}")
    return TableResult("figure14", data, "\n\n".join(sections))


# ----------------------------------------------------------------------
# Figure 15 — window size selection
# ----------------------------------------------------------------------
def figure_15(budget: Budget = STANDARD, seed: int = 0,
              datasets: Sequence[str] = ("ecg", "smap"),
              window_values: Sequence[int] = (4, 8, 16, 32, 64),
              progress=None) -> TableResult:
    """Validation-error-ordered window-size candidates with PR/ROC."""
    from ..datasets.preprocess import train_validation_split
    data: Dict = {}
    sections: List[str] = []
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=budget.dataset_scale)
        train, validation = train_validation_split(dataset.train, 0.3)
        records = []
        for i, window in enumerate(window_values):
            if progress:
                progress(f"figure15 w={window} on {dataset_name}")
            if window > validation.shape[0] or window > train.shape[0] // 8:
                continue
            sub_dataset = dataclasses.replace(dataset, train=train)
            ensemble = _fit_ensemble(sub_dataset, budget, seed + i,
                                     window=window)
            recon = ensemble.validation_reconstruction_error(validation)
            scores = ensemble.score(dataset.test)
            records.append({
                "value": int(window),
                "reconstruction_error": recon,
                "pr": pr_auc(dataset.test_labels, scores),
                "roc": roc_auc(dataset.test_labels, scores)})
        records.sort(key=lambda r: r["reconstruction_error"])
        median_index = (len(records) - 1) // 2
        data[dataset_name] = {"records": records,
                              "median_index": median_index,
                              "median_value": records[median_index]["value"]}
        series = {
            "recon_error": [r["reconstruction_error"] for r in records],
            "PR": [r["pr"] for r in records],
            "ROC": [r["roc"] for r in records]}
        labels = [f"{r['value']}" + ("*" if i == median_index else "")
                  for i, r in enumerate(records)]
        sections.append(format_series(
            "w (err-ordered, *=median pick)", labels, series,
            title=f"[figure15] {dataset_name.upper()} window-size selection"))
    sections.append(f"Paper trend: {PAPER_FIGURE_TRENDS['figure15']}")
    return TableResult("figure15", data, "\n\n".join(sections))


# ----------------------------------------------------------------------
# Figure 16 — effect of the number of basic models
# ----------------------------------------------------------------------
def figure_16(budget: Budget = STANDARD, seed: int = 0,
              datasets: Sequence[str] = ("ecg", "smap"),
              max_models: int = 8, progress=None) -> TableResult:
    """PR/ROC as the ensemble grows from 1 to ``max_models`` basic models.

    Trains the largest ensemble once, then scores with the first ``m``
    models for every m — the growth curve the paper shows during training.
    """
    data: Dict = {}
    sections: List[str] = []
    for dataset_name in datasets:
        if progress:
            progress(f"figure16 on {dataset_name}")
        dataset = load_dataset(dataset_name, scale=budget.dataset_scale)
        ensemble = _fit_ensemble(dataset, budget, seed, n_models=max_models)
        counts = list(range(1, max_models + 1))
        series = {"PR": [], "ROC": []}
        for m in counts:
            scores = ensemble.score(dataset.test, n_models=m)
            series["PR"].append(pr_auc(dataset.test_labels, scores))
            series["ROC"].append(roc_auc(dataset.test_labels, scores))
        data[dataset_name] = {"n_models": counts, **series}
        sections.append(format_series(
            "# models", counts, series,
            title=f"[figure16] {dataset_name.upper()} effect of the number "
                  f"of basic models"))
    sections.append(f"Paper trend: {PAPER_FIGURE_TRENDS['figure16']}")
    return TableResult("figure16", data, "\n\n".join(sections))


# ----------------------------------------------------------------------
# Figure 17 — kernel size
# ----------------------------------------------------------------------
def figure_17(budget: Budget = STANDARD, seed: int = 0,
              datasets: Sequence[str] = ("ecg", "smap"),
              kernel_sizes: Sequence[int] = (3, 5, 7, 9),
              progress=None) -> TableResult:
    """All five metrics as the convolution kernel grows (insensitivity)."""
    data: Dict = {}
    sections: List[str] = []
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=budget.dataset_scale)
        series = {"Precision": [], "Recall": [], "F1": [], "PR": [],
                  "ROC": []}
        for kernel in kernel_sizes:
            if progress:
                progress(f"figure17 k={kernel} on {dataset_name}")
            ensemble = _fit_ensemble(dataset, budget, seed,
                                     kernel_size=kernel)
            scores = ensemble.score(dataset.test)
            report = accuracy_report(dataset.test_labels, scores)
            series["Precision"].append(report.precision)
            series["Recall"].append(report.recall)
            series["F1"].append(report.f1)
            series["PR"].append(report.pr_auc)
            series["ROC"].append(report.roc_auc)
        data[dataset_name] = {"kernel_sizes": list(kernel_sizes), **series}
        sections.append(format_series(
            "kernel", list(kernel_sizes), series,
            title=f"[figure17] {dataset_name.upper()} effect of kernel "
                  f"size"))
    sections.append(f"Paper trend: {PAPER_FIGURE_TRENDS['figure17']}")
    return TableResult("figure17", data, "\n\n".join(sections))

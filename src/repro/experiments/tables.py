"""Regeneration of every table in the paper's evaluation (Tables 3-8).

Each ``table_N`` function runs the required experiments under a budget and
returns a :class:`TableResult` carrying the structured numbers plus an
ASCII rendering that mirrors the paper's layout, with the published values
printed alongside for the EXPERIMENTS.md comparison.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Sequence

import numpy as np

from ..core.config import CAEConfig, EnsembleConfig
from ..core.ensemble import CAEEnsemble
from ..datasets import load_dataset
from ..metrics import accuracy_report
from .paper_values import (PAPER_ABLATION, PAPER_ACCURACY, PAPER_DIVERSITY,
                           PAPER_INFERENCE_MS, PAPER_TRAIN_MINUTES,
                           PAPER_TRAIN_RATIOS)
from .reporting import format_table
from .runner import (Budget, MODEL_ORDER, STANDARD, RunResult,
                     build_detector, dataset_hyperparameters, overall_average,
                     run_matrix)

METRIC_NAMES: Sequence[str] = ("Precision", "Recall", "F1", "PR", "ROC")


@dataclasses.dataclass
class TableResult:
    """Structured numbers plus a printable rendering for one table."""
    table_id: str
    data: Dict
    rendering: str

    def __str__(self) -> str:
        return self.rendering


def _accuracy_rows(results_for_dataset: Dict[str, RunResult],
                   dataset_name: str) -> List[List]:
    rows = []
    paper = PAPER_ACCURACY.get(dataset_name, {})
    for model in results_for_dataset:
        report = results_for_dataset[model].report
        row: List = [model]
        measured = (report.precision, report.recall, report.f1,
                    report.pr_auc, report.roc_auc)
        reference = paper.get(model)
        for i, value in enumerate(measured):
            if reference is None:
                row.append(f"{value:.4f}")
            else:
                row.append(f"{value:.4f} ({reference[i]:.4f})")
        rows.append(row)
    return rows


def _accuracy_table(dataset_names: Sequence[str], table_id: str,
                    budget: Budget, seed: int,
                    models: Sequence[str] = MODEL_ORDER,
                    include_overall: bool = False,
                    progress=None) -> TableResult:
    results = run_matrix(models, dataset_names, budget, seed=seed,
                         progress=progress)
    sections: List[str] = []
    data: Dict = {"results": results}
    for dataset_name in dataset_names:
        rows = _accuracy_rows(results[dataset_name], dataset_name)
        sections.append(format_table(
            ["Model"] + [f"{m} (paper)" for m in METRIC_NAMES], rows,
            title=f"[{table_id}] {dataset_name.upper()} accuracy — "
                  f"measured (paper)"))
    if include_overall:
        overall = overall_average(results)
        data["overall"] = overall
        paper = PAPER_ACCURACY["overall"]
        rows = []
        for model, report in overall.items():
            measured = (report.precision, report.recall, report.f1,
                        report.pr_auc, report.roc_auc)
            reference = paper.get(model)
            row: List = [model]
            for i, value in enumerate(measured):
                row.append(f"{value:.4f} ({reference[i]:.4f})"
                           if reference else f"{value:.4f}")
            rows.append(row)
        sections.append(format_table(
            ["Model"] + [f"{m} (paper)" for m in METRIC_NAMES], rows,
            title=f"[{table_id}] OVERALL (mean over "
                  f"{', '.join(dataset_names)})"))
    return TableResult(table_id, data, "\n\n".join(sections))


def table_3(budget: Budget = STANDARD, seed: int = 0,
            progress=None) -> TableResult:
    """Table 3: accuracy on ECG, SMD and MSL for all twelve models."""
    return _accuracy_table(("ecg", "smd", "msl"), "table3", budget, seed,
                           progress=progress)


def table_4(budget: Budget = STANDARD, seed: int = 0,
            progress=None) -> TableResult:
    """Table 4: accuracy on SMAP and WADI plus the overall average.

    The paper's 'Overall' block averages all five datasets; this function
    therefore also runs ECG/SMD/MSL (at the same budget) for the average.
    """
    return _accuracy_table(("smap", "wadi", "ecg", "smd", "msl"), "table4",
                           budget, seed, include_overall=True,
                           progress=progress)


# ----------------------------------------------------------------------
# Table 5 — ablation study
# ----------------------------------------------------------------------
ABLATION_VARIANTS: Sequence[str] = ("No attention", "No diversity",
                                    "No ensemble", "No re-scaling",
                                    "CAE-Ensemble")


def _ablation_detector(variant: str, dataset_name: str, input_dim: int,
                       window: int, budget: Budget, seed: int):
    """CAE-Ensemble with exactly one component removed (Section 4.2.3)."""
    params = dataset_hyperparameters(dataset_name)
    cae = CAEConfig(input_dim=input_dim, embed_dim=budget.embed_dim,
                    window=window, n_layers=budget.n_layers,
                    use_attention=(variant != "No attention"))
    ensemble = EnsembleConfig(
        n_models=1 if variant == "No ensemble" else budget.n_models,
        epochs_per_model=(budget.scaled_epochs(budget.n_models)
                          if variant == "No ensemble" else budget.epochs),
        diversity_weight=(0.0 if variant in ("No diversity", "No ensemble")
                          else float(params["lambda"])),
        transfer_fraction=(0.0 if variant in ("No diversity", "No ensemble")
                           else float(params["beta"])),
        rescale=(variant != "No re-scaling"),
        max_training_windows=budget.max_training_windows, seed=seed)
    return CAEEnsemble(cae, ensemble)


def table_5(budget: Budget = STANDARD, seed: int = 0,
            datasets: Sequence[str] = ("ecg", "smap"),
            progress=None) -> TableResult:
    """Table 5: remove one design component at a time (ECG and SMAP)."""
    data: Dict = {}
    sections: List[str] = []
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=budget.dataset_scale)
        params = dataset_hyperparameters(dataset_name)
        window = max(4, min(int(params["window"]),
                            dataset.train.shape[0] // 8))
        rows = []
        data[dataset_name] = {}
        for variant in ABLATION_VARIANTS:
            if progress:
                progress(f"{variant} on {dataset_name}")
            model = _ablation_detector(variant, dataset_name, dataset.dims,
                                       window, budget, seed)
            model.fit(dataset.train)
            scores = model.score(dataset.test)
            report = accuracy_report(dataset.test_labels, scores)
            data[dataset_name][variant] = report
            reference = PAPER_ABLATION.get(dataset_name, {}).get(variant)
            measured = (report.precision, report.recall, report.f1,
                        report.pr_auc, report.roc_auc)
            row: List = [variant]
            for i, value in enumerate(measured):
                row.append(f"{value:.4f} ({reference[i]:.4f})"
                           if reference else f"{value:.4f}")
            rows.append(row)
        sections.append(format_table(
            ["Variant"] + [f"{m} (paper)" for m in METRIC_NAMES], rows,
            title=f"[table5] Ablation on {dataset_name.upper()} — "
                  f"measured (paper)"))
    return TableResult("table5", data, "\n\n".join(sections))


# ----------------------------------------------------------------------
# Table 6 — quantifying the diversity
# ----------------------------------------------------------------------
def table_6(budget: Budget = STANDARD, seed: int = 0,
            datasets: Sequence[str] = ("ecg", "smap"),
            progress=None) -> TableResult:
    """Table 6: Eq. 10 ensemble diversity with and without the
    diversity-driven objective."""
    data: Dict = {}
    rows: List[List] = []
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=budget.dataset_scale)
        params = dataset_hyperparameters(dataset_name)
        window = max(4, min(int(params["window"]),
                            dataset.train.shape[0] // 8))
        measurements: Dict[str, float] = {}
        for variant in ("No Diversity", "CAE-Ensemble"):
            if progress:
                progress(f"{variant} on {dataset_name}")
            cae = CAEConfig(input_dim=dataset.dims,
                            embed_dim=budget.embed_dim, window=window,
                            n_layers=budget.n_layers)
            ensemble_config = EnsembleConfig(
                n_models=budget.n_models, epochs_per_model=budget.epochs,
                diversity_weight=(float(params["lambda"])
                                  if variant == "CAE-Ensemble" else 0.0),
                transfer_fraction=(float(params["beta"])
                                   if variant == "CAE-Ensemble" else 0.0),
                max_training_windows=budget.max_training_windows, seed=seed)
            model = CAEEnsemble(cae, ensemble_config).fit(dataset.train)
            # Diversity is evaluated on a test slice, as in the paper.
            slice_len = min(dataset.test.shape[0], 1000)
            measurements[variant] = model.diversity(dataset.test[:slice_len])
        data[dataset_name] = measurements
        paper = PAPER_DIVERSITY.get(dataset_name, {})
        for variant, value in measurements.items():
            reference = paper.get(variant)
            rows.append([f"{dataset_name}/{variant}",
                         f"{value:.4f}" +
                         (f" ({reference:.4f})" if reference else "")])
    rendering = format_table(["Ensemble", "DIV_F (paper)"], rows,
                             title="[table6] Ensemble diversity (Eq. 10) — "
                                   "measured (paper)")
    return TableResult("table6", data, rendering)


# ----------------------------------------------------------------------
# Table 7 — training time
# ----------------------------------------------------------------------
def sequential_depth_per_window(model_name: str, window: int,
                                n_layers: int) -> int:
    """Longest chain of operations that *must* run one after another to
    process one window — the architectural quantity behind the paper's
    efficiency claim (Section 2).

    An RNN autoencoder steps through the window twice (encode + decode),
    so its depth grows linearly with ``w``; the convolutional model's
    depth is its layer count (every timestamp within a layer is one
    batched operation), independent of ``w``.
    """
    if model_name.startswith("RAE"):
        return 2 * window
    # embedding + encoder layers + decoder layers + reconstruction
    return 2 * n_layers + 2


def _best_fit_seconds(detector, series: np.ndarray) -> float:
    """Best wall-clock of up to three ``detector.fit(series)`` calls.

    Every fit is seeded identically, so refitting changes nothing but the
    timing.  Short fits repeat until 2 s of fitting has run, so neither
    one scheduler stall on a shared host nor the BLAS thread pool's first
    start in the process can swing the ensemble/basic ratios; a fit
    longer than that runs once.
    """
    best, spent = float("inf"), 0.0
    for _ in range(3):
        start = time.perf_counter()
        detector.fit(series)
        elapsed = time.perf_counter() - start
        best, spent = min(best, elapsed), spent + elapsed
        if spent >= 2.0:
            break
    return best


def table_7(budget: Budget = STANDARD, seed: int = 0,
            datasets: Sequence[str] = ("ecg", "msl", "smap", "smd", "wadi"),
            early_stop_tolerance: float = 0.05,
            progress=None) -> TableResult:
    """Table 7: training cost of the RAE/CAE families + ensemble ratios.

    Three quantities are reported per (model, dataset):

    * wall-clock seconds (best of repeated short fits, see
      :func:`_best_fit_seconds`) — hardware-specific; on the authors' GPUs the
      convolutional family wins because all window positions run in
      parallel.  Single-threaded NumPy cannot express that parallelism, so
      absolute CPU times do NOT reproduce the paper's CAE < RAE ordering
      (documented in EXPERIMENTS.md);
    * sequential depth per window — the architectural source of the GPU
      speedup: O(w) for the recurrent models, O(layers) for CAE.  This is
      exactly reproducible and asserted by the benchmark;
    * epochs actually trained — basic models train ``budget.epochs``
      epochs; ensemble members of the CAE family stop early once
      warm-started (parameter transfer), which is what pushes the paper's
      CAE-Ensemble/CAE ratio (5.91 avg) below RAE-Ensemble/RAE (7.82 ≈ M).
    """
    from ..baselines import (CAEDetector, CAEEnsembleDetector, RAE,
                             RAEEnsemble)
    from ..core.config import EnsembleConfig

    family = ("RAE", "RAE-Ensemble", "CAE", "CAE-Ensemble")
    times: Dict[str, Dict[str, float]] = {m: {} for m in family}
    epochs_used: Dict[str, Dict[str, int]] = {m: {} for m in family}
    depths: Dict[str, Dict[str, int]] = {m: {} for m in family}

    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=budget.dataset_scale)
        params = dataset_hyperparameters(dataset_name)
        window = budget.window_override or int(params["window"])
        window = max(4, min(window, dataset.train.shape[0] // 8))
        common = dict(window=window,
                      max_training_windows=budget.max_training_windows,
                      seed=seed)

        def ensemble_config(n_models: int) -> EnsembleConfig:
            return EnsembleConfig(
                n_models=n_models, epochs_per_model=budget.epochs,
                diversity_weight=float(params["lambda"]),
                transfer_fraction=float(params["beta"]), seed=seed,
                max_training_windows=budget.max_training_windows,
                early_stop_tolerance=early_stop_tolerance,
                early_stop_patience=1)

        detectors = {
            "RAE": RAE(hidden_size=budget.hidden_size, epochs=budget.epochs,
                       **common),
            "RAE-Ensemble": RAEEnsemble(
                n_models=budget.n_models, hidden_size=budget.hidden_size,
                epochs=budget.epochs, **common),
            "CAE": CAEDetector(
                window=window, embed_dim=budget.embed_dim,
                n_layers=budget.n_layers, epochs=budget.epochs, seed=seed,
                max_training_windows=budget.max_training_windows),
            "CAE-Ensemble": CAEEnsembleDetector(
                window=window, embed_dim=budget.embed_dim,
                n_layers=budget.n_layers,
                ensemble_config=ensemble_config(budget.n_models)),
        }
        for model_name in family:
            if progress:
                progress(f"{model_name} on {dataset_name}")
            detector = detectors[model_name]
            times[model_name][dataset_name] = _best_fit_seconds(
                detector, dataset.train)
            depths[model_name][dataset_name] = sequential_depth_per_window(
                model_name, window, budget.n_layers)
            if model_name in ("CAE", "CAE-Ensemble"):
                epochs_used[model_name][dataset_name] = \
                    len(detector.ensemble.history)
            else:
                members = budget.n_models if "Ensemble" in model_name else 1
                epochs_used[model_name][dataset_name] = \
                    budget.epochs * members

    rows = []
    for model_name in family:
        row: List = [model_name]
        for dataset_name in datasets:
            measured = times[model_name][dataset_name]
            paper = PAPER_TRAIN_MINUTES[model_name][dataset_name]
            row.append(f"{measured:.1f}s/{epochs_used[model_name][dataset_name]}ep"
                       f"/d{depths[model_name][dataset_name]} "
                       f"({paper:.1f}m)")
        rows.append(row)
    ratio_rows = []
    ratios: Dict[str, Dict[str, float]] = {}
    epoch_ratios: Dict[str, Dict[str, float]] = {}
    for label, ensemble, basic in (("RAE-Ensemble/RAE", "RAE-Ensemble",
                                    "RAE"),
                                   ("CAE-Ensemble/CAE", "CAE-Ensemble",
                                    "CAE")):
        ratios[label] = {}
        epoch_ratios[label] = {}
        row: List = [label]
        for dataset_name in datasets:
            value = times[ensemble][dataset_name] / \
                max(times[basic][dataset_name], 1e-9)
            ratios[label][dataset_name] = value
            epoch_ratios[label][dataset_name] = \
                epochs_used[ensemble][dataset_name] / \
                max(epochs_used[basic][dataset_name], 1)
            paper = PAPER_TRAIN_RATIOS[label][dataset_name]
            row.append(f"{value:.2f} ({paper:.2f})")
        ratio_rows.append(row)
    rendering = "\n\n".join([
        format_table(["Model"] + [d.upper() for d in datasets], rows,
                     title="[table7] Training cost — measured seconds/"
                           "epochs/sequential-depth (paper minutes)"),
        format_table(["Ratio"] + [d.upper() for d in datasets], ratio_rows,
                     title="[table7] Ensemble/basic runtime ratios — "
                           "measured (paper)"),
        "Note: absolute wall-clock favours the GPU-parallel CAE only on "
        "parallel hardware; on single-threaded NumPy the reproducible "
        "quantities are the sequential depth (dN, O(w) for RAE vs "
        "O(layers) for CAE) and the epoch savings from parameter "
        "transfer."])
    return TableResult("table7", {"seconds": times, "ratios": ratios,
                                  "epochs": epochs_used, "depths": depths,
                                  "epoch_ratios": epoch_ratios},
                       rendering)


# ----------------------------------------------------------------------
# Table 8 — online inference time per window
# ----------------------------------------------------------------------
def table_8(budget: Budget = STANDARD, seed: int = 0,
            datasets: Sequence[str] = ("ecg", "msl", "smap", "smd", "wadi"),
            n_probe_windows: int = 50, progress=None) -> TableResult:
    """Table 8: per-window streaming latency of CAE and CAE-Ensemble.

    The ensemble is timed twice — through the fused batched inference
    engine (:mod:`repro.core.fused`, the serving default) and through
    the per-model loop — so the table shows the fusion speedup next to
    the paper's GPU numbers.
    """
    data: Dict[str, Dict[str, float]] = {
        "CAE": {}, "CAE-Ensemble": {}, "CAE-Ensemble (unfused)": {},
        "fused speedup": {}}
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=budget.dataset_scale)
        for model_name in ("CAE", "CAE-Ensemble"):
            if progress:
                progress(f"{model_name} on {dataset_name}")
            detector = build_detector(model_name, dataset, budget, seed=seed)
            detector.fit(dataset.train)
            ensemble = detector.ensemble
            window = ensemble.cae_config.window
            probes = [dataset.test[i:i + window]
                      for i in range(min(n_probe_windows,
                                         dataset.test.shape[0] - window))]
            variants = (("CAE",),) if model_name == "CAE" else \
                (("CAE-Ensemble", True), ("CAE-Ensemble (unfused)", False))
            for variant in variants:
                fused = variant[1] if len(variant) > 1 else None
                if not probes:          # test split shorter than a window
                    data[variant[0]][dataset_name] = 0.0
                    continue
                ensemble.score_window(probes[0], fused=fused)   # warm-up
                start = time.perf_counter()
                for probe in probes:
                    ensemble.score_window(probe, fused=fused)
                elapsed = time.perf_counter() - start
                data[variant[0]][dataset_name] = \
                    elapsed / len(probes) * 1000.0
        data["fused speedup"][dataset_name] = \
            data["CAE-Ensemble (unfused)"][dataset_name] / \
            max(data["CAE-Ensemble"][dataset_name], 1e-9)
    rows = []
    for model_name in ("CAE", "CAE-Ensemble", "CAE-Ensemble (unfused)"):
        row: List = [model_name]
        for dataset_name in datasets:
            measured = data[model_name][dataset_name]
            paper = PAPER_INFERENCE_MS.get(model_name, {}).get(dataset_name)
            row.append(f"{measured:.3f} ({paper:.4f})" if paper is not None
                       else f"{measured:.3f}")
        rows.append(row)
    rows.append(["fused speedup"] +
                [f"{data['fused speedup'][d]:.1f}x" for d in datasets])
    rendering = format_table(
        ["Model"] + [d.upper() for d in datasets], rows,
        title="[table8] Inference time per window, ms — measured (paper); "
              "CAE-Ensemble serves through the fused engine")
    return TableResult("table8", data, rendering)

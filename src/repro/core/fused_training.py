"""Fused batched training: Algorithm 1 with one batched GEMM per layer.

This is the trainer behind every :meth:`CAEEnsemble.fit`.  The paper's
sequential diversity objective (model *i* trains against the frozen mean
of models 0..i−1, Eq. 8 / Figure 8) forbids batching *across* models —
model i's target does not exist until 0..i−1 finished — so the trainer
keeps the stage structure and instead fuses *within* each stage:

* the stage's parameters live in stacked ``(1, ...)`` leaf tensors (the
  ``(M, ...)`` layout of :mod:`repro.core.fused` with the model axis
  sliced to the one model in training), stepped directly by ``Adam``;
* every layer is one coarse :mod:`repro.nn.batched` op — a single batched
  GEMM forward and a hand-written VJP backward — so a training step
  records ~25 graph nodes instead of the per-module autograd path's
  ~100 and spends its time in BLAS, not the interpreter;
* the whole stage runs in a configurable compute dtype
  (``EnsembleConfig.fused_training_dtype``, default float32 — half the
  memory traffic of float64, same BLAS kernels);
* the loss, its gradient and the epoch J/K statistics come out of one
  :func:`repro.nn.batched.fused_training_loss` node — no detached
  re-evaluations;
* the frozen-ensemble output of a finished stage is produced by the same
  batched forward under ``no_grad``, in training-batch chunks so its
  activations stay a training step's size; it is skipped for the last
  stage and for every stage of a ``diversity_weight == 0`` fit, since no
  later model reads it.

Equivalence contract (``tests/test_core_fused_training.py``): the test
suite keeps the per-module float64 loop as an oracle,
``ReferenceTrainer``.  Both consume the ensemble RNG
identically (same model-init, transfer and shuffle draws) and compute the
same objective over the same batches; with
``fused_training_dtype='float64'`` the fused trainer matches the oracle's
loss trajectory to ~1e-9 relative, and the default float32 path agrees
within a documented relative tolerance (see ``docs/performance.md``).
Trained weights are written back to the CAE modules in float64, so
scoring, checkpointing and parameter transfer are unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn import Adam, Tensor, no_grad
from ..nn.batched import (batched_attention, batched_conv1d, batched_glu,
                          batched_linear_cf, batched_relu_residual,
                          batched_shift_right, fused_training_loss)
from .cae import CAE
from .config import CAEConfig, EnsembleConfig

# (epoch, loss, reconstruction J, diversity K) — the ensemble turns these
# into EpochRecords (kept as plain tuples to avoid a circular import).
StageRecord = Tuple[int, float, float, float]


class FusedEnsembleTrainer:
    """Stage-sequential fused trainer for one ensemble fit.

    One instance serves one :meth:`CAEEnsemble.fit` call: it takes the
    fit's training windows once, in channel-first compute-dtype layout,
    and trains each basic model with the batched-op graph.  The ensemble
    keeps owning Algorithm 1's sequencing (model creation, parameter
    transfer, the frozen ensemble mean and cancellation) so the RNG draw
    order is shared with the test oracle by construction.
    """

    def __init__(self, cae_config: CAEConfig, ensemble_config: EnsembleConfig,
                 windows: np.ndarray):
        self.cae_config = cae_config
        self.config = ensemble_config
        self.dtype = np.dtype(ensemble_config.fused_training_dtype)
        # (D, N, w) contiguous compute-dtype copy of the training windows.
        self._windows_cf = np.ascontiguousarray(windows.transpose(2, 0, 1),
                                                dtype=self.dtype)
        # Normalised position inputs (w, 1), as InputEmbedding builds them.
        w = cae_config.window
        self._position_base = Tensor(
            (np.arange(w, dtype=np.float64) / max(w - 1, 1))
            .reshape(-1, 1).astype(self.dtype))

    # ------------------------------------------------------------------
    # Stage parameter packing
    # ------------------------------------------------------------------
    def _pack_leaves(self, model: CAE) -> Dict[str, Tensor]:
        """Stacked ``(1, *shape)`` leaf tensors for every model parameter.

        The leading model axis is what the :mod:`repro.nn.batched` ops
        batch over; with multi-candidate builds (ROADMAP item 4) the same
        layout extends to M > 1 stacked candidates.
        """
        return {name: Tensor(param.data[None].astype(self.dtype),
                             requires_grad=True, name=name)
                for name, param in model.named_parameters()}

    @staticmethod
    def _write_back(leaves: Dict[str, Tensor], model: CAE) -> None:
        """Copy trained stage weights into the CAE's float64 parameters."""
        for name, param in model.named_parameters():
            param.data[...] = leaves[name].data[0]

    # ------------------------------------------------------------------
    # Batched forward graph
    # ------------------------------------------------------------------
    def _positions(self, leaves: Dict[str, Tensor]) -> Tensor:
        """``(D', 1, w)`` position embeddings, in the graph — broadcast
        over the window axis of the channel-major activations."""
        config = self.cae_config
        if config.position_mode == "linear":
            weight = leaves["embedding.position.weight"] \
                .reshape(config.embed_dim, 1)
            bias = leaves["embedding.position.bias"] \
                .reshape(config.embed_dim)
            z = self._position_base @ weight.transpose(1, 0) + bias
            return z.tanh().transpose(1, 0) \
                .reshape(config.embed_dim, 1, config.window)
        table = leaves["embedding.position.weight"] \
            .reshape(config.window, config.embed_dim)
        return table.transpose(1, 0) \
            .reshape(config.embed_dim, 1, config.window)

    def _forward(self, leaves: Dict[str, Tensor],
                 windows_cf: np.ndarray) -> Tuple[Tensor, Tensor]:
        """The CAE forward pass over ``(1, D, B, w)`` windows.

        Mirrors :meth:`repro.core.cae.CAE.forward` layer for layer in the
        stacked channel-major layout; returns ``(reconstruction,
        embedded)`` as ``(1, out, B, w)`` / ``(1, D', B, w)`` tensors.
        """
        config = self.cae_config
        x = Tensor(windows_cf)
        values = batched_linear_cf(
            x, leaves["embedding.observation.weight"],
            leaves.get("embedding.observation.bias")).tanh()
        embedded = values + self._positions(leaves)

        encoder_states: List[Tensor] = []
        state = embedded
        for i in range(config.n_layers):
            base = f"encoder.layer{i}."
            gated = batched_glu(
                state,
                leaves[base + "glu.conv_value.weight"],
                leaves.get(base + "glu.conv_value.bias"),
                leaves[base + "glu.conv_gate.weight"],
                leaves.get(base + "glu.conv_gate.bias"),
                padding="same") if config.use_glu else state
            pre = batched_conv1d(gated, leaves[base + "conv.weight"],
                                 leaves.get(base + "conv.bias"),
                                 padding="same")
            state = batched_relu_residual(pre, skip=state)
            encoder_states.append(state)

        decoder_state = batched_shift_right(embedded)
        for i in range(config.n_layers):
            base = f"decoder{i}."
            gated = batched_glu(
                decoder_state,
                leaves[base + "glu.conv_value.weight"],
                leaves.get(base + "glu.conv_value.bias"),
                leaves[base + "glu.conv_gate.weight"],
                leaves.get(base + "glu.conv_gate.bias"),
                padding="causal") if config.use_glu else decoder_state
            pre = batched_conv1d(gated, leaves[base + "conv.weight"],
                                 leaves.get(base + "conv.bias"),
                                 padding="causal")
            decoder_state = batched_relu_residual(pre, skip=decoder_state,
                                                  mix=encoder_states[i])
            if config.use_attention:
                decoder_state = batched_attention(
                    decoder_state, encoder_states[i],
                    leaves[f"attention{i}.summary.weight"],
                    leaves.get(f"attention{i}.summary.bias"))

        final = decoder_state
        if config.use_glu:
            final = batched_glu(
                final,
                leaves["output_glu.conv_value.weight"],
                leaves.get("output_glu.conv_value.bias"),
                leaves["output_glu.conv_gate.weight"],
                leaves.get("output_glu.conv_gate.bias"),
                padding="causal")
        reconstruction = batched_conv1d(
            final, leaves["reconstruction.weight"],
            leaves.get("reconstruction.bias"), padding="valid")
        return reconstruction, embedded

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_model(self, model: CAE, model_index: int,
                    frozen_ensemble: Optional[np.ndarray],
                    rng: np.random.Generator, verbose: bool = False
                    ) -> Tuple[List[StageRecord], Optional[np.ndarray]]:
        """Train one basic model and return its epoch records and frozen
        output over all training windows, ``(N, w, out)`` float64.

        The output is ``None`` when no later model reads the Eq. 8 mean:
        for the last basic model (``model_index + 1 == config.n_models``)
        and for every model of a ``diversity_weight == 0`` fit.  Its
        frozen forward is then skipped.  ``frozen_ensemble`` is released
        once its compute-dtype copy is made.

        ``rng`` is the ensemble's generator; exactly one
        ``permutation(n)`` is drawn per epoch — the same consumption as
        the per-module test oracle, keeping both paths' downstream draws
        aligned.
        """
        config = self.config
        leaves = self._pack_leaves(model)
        optimizer = Adam(leaves.values(), lr=config.learning_rate,
                         grad_clip=config.grad_clip)
        windows_cf = self._windows_cf
        n = windows_cf.shape[1]
        batch = config.batch_size
        use_diversity = (frozen_ensemble is not None and
                         config.diversity_weight > 0.0)
        frozen_cf = np.ascontiguousarray(
            frozen_ensemble.transpose(2, 0, 1), dtype=self.dtype) \
            if use_diversity else None
        del frozen_ensemble
        observations = self.cae_config.reconstruct == "observations"
        records: List[StageRecord] = []
        previous_loss: Optional[float] = None
        stall_count = 0
        for epoch in range(config.epochs_per_model):
            order = rng.permutation(n)
            epoch_loss = epoch_j = epoch_k = 0.0
            n_batches = 0
            for start in range(0, n, batch):
                index = order[start:start + batch]
                batch_cf = windows_cf[:, index][None]    # (1, D, B, w)
                optimizer.zero_grad()
                prediction, embedded = self._forward(leaves, batch_cf)
                target = batch_cf if observations else embedded.data
                loss, j_value, k_value = fused_training_loss(
                    prediction, target,
                    frozen_cf[:, index][None] if use_diversity else None,
                    config.diversity_weight,
                    saturation=config.diversity_saturation)
                loss.backward()
                optimizer.step()
                epoch_loss += float(loss.data)
                epoch_j += j_value
                epoch_k += k_value
                n_batches += 1
                # Free this step's graph before the next forward builds
                # its own, so one step's activations are live, not two.
                del prediction, embedded, target, loss
            record = (epoch, epoch_loss / n_batches, epoch_j / n_batches,
                      epoch_k / n_batches)
            records.append(record)
            if verbose:
                print(f"model {model_index} epoch {epoch}: "
                      f"loss={record[1]:.5f} J={record[2]:.5f} "
                      f"K={record[3]:.5f}")
            tolerance = config.early_stop_tolerance
            if tolerance is not None and previous_loss is not None:
                improvement = (previous_loss - record[2]) / \
                    max(abs(previous_loss), 1e-12)
                stall_count = stall_count + 1 if improvement < tolerance \
                    else 0
                if stall_count >= config.early_stop_patience:
                    break
            previous_loss = record[2]
        self._write_back(leaves, model)
        if model_index + 1 == config.n_models or \
                config.diversity_weight == 0.0:
            return records, None
        del frozen_cf   # the frozen pass below does not read it
        return records, self._stage_output(leaves, windows_cf)

    def _stage_output(self, leaves: Dict[str, Tensor],
                      windows_cf: np.ndarray) -> np.ndarray:
        """Frozen forward over all windows with the stage weights,
        ``(N, w, out)`` float64 — the fused analogue of
        :meth:`CAEEnsemble._model_output`, feeding the Eq. 8 running sum.
        It runs in training-batch chunks, so its activations are no
        larger than a training step's."""
        n = windows_cf.shape[1]
        batch_size = self.config.batch_size
        outputs = np.empty((n, self.cae_config.window,
                            self.cae_config.output_dim), dtype=np.float64)
        with no_grad():
            for start in range(0, n, batch_size):
                part = np.ascontiguousarray(
                    windows_cf[:, start:start + batch_size])[None]
                reconstruction, _ = self._forward(leaves, part)
                outputs[start:start + batch_size] = \
                    reconstruction.data[0].transpose(1, 2, 0)
        return outputs

"""Model checkpointing: state-dict save/load as ``.npz`` archives."""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from .modules import Module


def save_state_dict(path: str, module: Module) -> None:
    """Persist a module's parameters to ``path`` (``.npz``)."""
    state = module.state_dict()
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # np.savez keys cannot contain '/', so dots are safe as-is.
    np.savez(path, **state)


def load_state_dict(path: str) -> Dict[str, np.ndarray]:
    """Load a raw state dict saved by :func:`save_state_dict`."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


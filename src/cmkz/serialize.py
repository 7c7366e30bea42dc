"""JSON helpers: complex numbers travel as [re, im] pairs."""

from __future__ import annotations

import json

import numpy as np


def pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def pair_list(values) -> list[list[float]]:
    return [pair(z) for z in np.asarray(values, dtype=complex).ravel()]


def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, shortest round-trip floats."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"

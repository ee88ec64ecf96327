"""Canonical JSON serialisation and content hashing.

Two subsystems key persistent state by "the exact meaning of a request":
the :class:`~repro.experiments.runner.ExperimentRunner` addresses its
on-disk result cache by experiment invocation, and the serving layer
(:mod:`repro.service`) addresses its in-memory response cache by request
body.  Both need the same guarantee — *semantically equal inputs hash
equal* — so the canonicalisation lives here, once:

* mappings serialise with sorted keys, so insertion order never changes
  the hash;
* separators are fixed (no whitespace drift between json versions);
* numpy arrays serialise as their ``.tolist()`` form, so a binary
  frame's float64 grid keys exactly like the JSON list it encodes;
* other values without a native JSON form fall back to ``repr``
  (stable for the numeric/py-literal payloads these subsystems carry).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

__all__ = ["canonical_json", "content_hash"]


def canonical_json(payload: Any) -> str:
    """Serialise ``payload`` to its canonical JSON form.

    Dict key order is irrelevant: ``{"a": 1, "b": 2}`` and
    ``{"b": 2, "a": 1}`` produce identical strings (recursively).
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_jsonable
    )


def _jsonable(value: Any) -> Any:
    # numpy's repr elides the middle of large arrays, so ``repr`` would
    # map distinct grids to one key.
    if isinstance(value, np.ndarray):
        return value.tolist()
    return repr(value)


def content_hash(payload: Any) -> str:
    """Hex SHA-256 of the canonical JSON form of ``payload``."""
    blob = canonical_json(payload)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

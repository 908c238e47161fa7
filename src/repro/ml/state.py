"""Serializable model state for checkpoint/restore.

Every classifier in :mod:`repro.ml` exposes ``to_state()`` /
``from_state()``: a JSON-compatible dict that captures the *fitted* model
exactly — weights, class order, hyperparameters — so a verification run can
be checkpointed mid-stream and resumed with byte-identical predictions.

Fitted arrays go through :func:`encode_array` / :func:`decode_array`, the
one place that knows their format: a ``{"dtype", "shape", "data"}`` dict
whose ``data`` is the base64 of the array's little-endian bytes (``<f8``
for floats, ``<i8`` for integer targets).  Decoding returns those very
bytes, so every float64 — NaN payloads, signed zeros and subnormals
included — comes back bit for bit, and a restored model is not merely
close to the original: ``predict_proba_batch`` returns the same bytes.
The encoding is also several times smaller than a JSON float list, and
it decodes without building a Python float per element.

This module also holds the kind registry used to rebuild a model from its
state dict without knowing its class up front.
"""

from __future__ import annotations

import base64
import binascii
import math
from collections.abc import Mapping

import numpy as np

from repro.errors import SerializationError

__all__ = [
    "decode_array",
    "encode_array",
    "model_from_state",
    "model_to_state",
    "register_model_kind",
]

#: Encoded dtype by numpy dtype kind, and the only two the decoder
#: accepts: every float array is written as ``<f8``, every integer array
#: as ``<i8``.
_ENCODED_DTYPES = {"f": "<f8", "i": "<i8"}

#: Maps the ``kind`` stamped into a state dict to the model class that
#: understands it.  Populated by :func:`register_model_kind` at import time
#: of each model module.
_MODEL_KINDS: dict[str, type] = {}


def register_model_kind(kind: str):
    """Class decorator registering ``cls`` as the handler for ``kind``."""

    def decorate(cls: type) -> type:
        cls.STATE_KIND = kind
        _MODEL_KINDS[kind] = cls
        return cls

    return decorate


def encode_array(array: np.ndarray) -> dict[str, object]:
    """The JSON-compatible encoding of a fitted float or integer array.

    Any memory layout is accepted; ``tobytes`` writes C order.
    """
    dtype = _ENCODED_DTYPES.get(array.dtype.kind)
    if dtype is None:
        raise SerializationError(f"cannot encode a {array.dtype} array")
    data = array.astype(dtype, copy=False).tobytes()
    return {
        "dtype": dtype,
        "shape": list(array.shape),
        "data": base64.b64encode(data).decode("ascii"),
    }


def decode_array(payload: object, field: str) -> np.ndarray:
    """Rebuild an array written by :func:`encode_array`.

    The result is a native-endian, writeable array that owns its memory
    (a restored softmax model warm-starts in place).  ``field`` names the
    state field in the :class:`~repro.errors.SerializationError` raised
    for a malformed payload.
    """
    if not isinstance(payload, Mapping):
        raise SerializationError(f"{field}: expected an encoded array, got {payload!r:.60}")
    dtype = payload.get("dtype")
    if dtype not in _ENCODED_DTYPES.values():
        raise SerializationError(f"{field}: unsupported array dtype {dtype!r}")
    shape = payload.get("shape")
    if not isinstance(shape, list) or not all(
        isinstance(extent, int) and extent >= 0 for extent in shape
    ):
        raise SerializationError(f"{field}: invalid array shape {shape!r}")
    data = payload.get("data")
    if not isinstance(data, str):
        raise SerializationError(f"{field}: array data must be a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except (binascii.Error, ValueError) as error:
        raise SerializationError(f"{field}: invalid base64 array data: {error}") from error
    encoded = np.dtype(dtype)
    expected = math.prod(shape) * encoded.itemsize
    if len(raw) != expected:
        raise SerializationError(
            f"{field}: {len(raw)} bytes of data, but dtype {dtype} x shape "
            f"{tuple(shape)} needs {expected}"
        )
    return np.frombuffer(raw, dtype=encoded).reshape(shape).astype(encoded.newbyteorder("="))


def model_to_state(model: object) -> dict[str, object]:
    """The state dict of any registered model (delegates to ``to_state``)."""
    to_state = getattr(model, "to_state", None)
    if to_state is None:
        raise SerializationError(
            f"model {type(model).__name__} does not support to_state()"
        )
    return to_state()


def model_from_state(state: Mapping[str, object]) -> object:
    """Rebuild a model from a state dict produced by :func:`model_to_state`."""
    kind = state.get("kind")
    cls = _MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        # Registration happens at import time of each model module; make the
        # dispatch self-sufficient for callers that deserialize before ever
        # constructing a model.
        from repro.ml import knn, logistic  # noqa: F401

        cls = _MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SerializationError(f"unknown model state kind {kind!r}")
    return cls.from_state(state)

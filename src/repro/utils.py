"""Small shared utilities: stable hashing, seeded RNG derivation, timers.

The whole library is deterministic: every stochastic component derives its
randomness from an explicit seed through :func:`derive_rng`, and every
content-addressed structure uses :func:`stable_hash` (Python's builtin
``hash`` is salted per process and therefore unusable for reproducibility).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
from typing import Iterable, Iterator, List, Sequence, TypeVar

import numpy as np

from .errors import ConfigError

T = TypeVar("T")


def stable_hash(text: str, *, bits: int = 64) -> int:
    """Return a process-stable unsigned integer hash of ``text``.

    Uses blake2b truncated to ``bits`` (must be a multiple of 8, at most 512).
    """
    if bits % 8 or not 8 <= bits <= 512:
        raise ConfigError(f"bits must be a multiple of 8 in [8, 512], got {bits}")
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=bits // 8).digest()
    return int.from_bytes(digest, "big")


def derive_rng(seed: int, *names: object) -> np.random.Generator:
    """Derive an independent RNG stream from ``seed`` and a name path.

    ``derive_rng(7, "dedup", 3)`` always yields the same stream, and streams
    with different name paths are statistically independent.
    """
    material = ":".join([str(seed)] + [str(n) for n in names])
    stream_seed = stable_hash(material, bits=64)
    return np.random.default_rng(stream_seed)


def derive_seed(seed: int, *names: object) -> int:
    """Derive a child integer seed from ``seed`` and a name path."""
    material = ":".join([str(seed)] + [str(n) for n in names])
    return stable_hash(material, bits=64)


def batched(items: Sequence[T], batch_size: int) -> Iterator[List[T]]:
    """Yield successive ``batch_size``-sized chunks of ``items``."""
    if batch_size <= 0:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    for start in range(0, len(items), batch_size):
        yield list(items[start : start + batch_size])


def pairwise(iterable: Iterable[T]) -> Iterator[tuple]:
    """Yield consecutive overlapping pairs: (a, b), (b, c), ..."""
    first, second = itertools.tee(iterable)
    next(second, None)
    return zip(first, second)


def check_finite_fields(obj: object, *names: str, allow_inf: Sequence[str] = ()) -> None:
    """Raise ``ConfigError`` when a named field of ``obj`` is NaN or infinite.

    Fields in ``allow_inf`` may be infinite (a watermark or ratio that is
    never crossed) but never NaN.  Range checks such as ``x <= 0`` are
    False for NaN, so without this a NaN setting passes construction and
    corrupts the run that uses it.
    """
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    for name in allow_inf:
        if math.isnan(getattr(obj, name)):
            raise ConfigError(f"{name} must not be NaN")


def check_int_fields(obj: object, *names: str) -> None:
    """Raise ``ConfigError`` when a named field of ``obj`` is not an integer.

    Counts and sizes must be whole numbers: a NaN passes ``x <= 0`` and a
    float such as 2.5 passes every range check, and both surface much later
    as a stalled or skewed run.  Booleans are refused too.
    """
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


def normalize(vector: np.ndarray) -> np.ndarray:
    """Return the L2-normalized copy of ``vector`` (zero vectors unchanged)."""
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        return vector.copy()
    return vector / norm


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values; raises on empty or non-positive."""
    if not values:
        raise ConfigError("geometric_mean of empty sequence")
    arr = np.asarray(values, dtype=float)
    if np.any(arr <= 0):
        raise ConfigError("geometric_mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``; raises on empty input."""
    if not values:
        raise ConfigError("percentile of empty sequence")
    return float(np.percentile(np.asarray(values, dtype=float), q))

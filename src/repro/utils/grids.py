"""Dense control-grid construction.

EdgeBOL searches a discretised control space ``X = H x A x Gamma x M``
(the paper uses 11 levels per dimension, |X| = 14641).  These helpers
build such grids as flat ``(n_points, n_dims)`` arrays so GP posteriors
can be evaluated with one vectorised kernel call.
"""

from __future__ import annotations

import numpy as np


def linear_levels(n_levels: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """Return ``n_levels`` equally spaced values in ``[low, high]``."""
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    if high < low:
        raise ValueError(f"high ({high}) must be >= low ({low})")
    if n_levels == 1:
        return np.array([high], dtype=float)
    return np.linspace(low, high, n_levels)


def cartesian_grid(*axes: np.ndarray) -> np.ndarray:
    """Cartesian product of 1-D axes as an ``(n_points, n_axes)`` array.

    The first axis varies slowest (row-major order), matching
    ``itertools.product`` semantics.  Built with ``np.meshgrid``
    broadcasting rather than a Python-level product loop, so the
    14641-row paper grid assembles in microseconds.
    """
    if not axes:
        raise ValueError("at least one axis is required")
    arrays = [np.asarray(a, dtype=float).ravel() for a in axes]
    for i, a in enumerate(arrays):
        if a.size == 0:
            raise ValueError(f"axis {i} is empty")
    mesh = np.meshgrid(*arrays, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def nearest_grid_index(grid: np.ndarray, point: np.ndarray) -> int:
    """Index of the grid row closest (Euclidean) to ``point``."""
    grid = np.asarray(grid, dtype=float)
    point = np.asarray(point, dtype=float).ravel()
    if grid.ndim != 2 or grid.shape[1] != point.size:
        raise ValueError(
            f"grid shape {grid.shape} incompatible with point of size {point.size}"
        )
    distances = np.sum((grid - point[None, :]) ** 2, axis=1)
    return int(np.argmin(distances))


def map_distinct(fn, *columns: np.ndarray) -> np.ndarray:
    """``fn`` applied row-wise to parallel 1-D columns, once per distinct row.

    Returns the ``(n_rows,)`` array ``[fn(*row) for row in zip(*columns)]``
    while calling ``fn`` only once per distinct tuple of values — a
    control grid has few distinct levels per axis, so scalar models
    (``pow``/``exp`` included) can be evaluated through their exact
    scalar code on a whole grid.  ``fn`` receives Python scalars of the
    columns' kinds (``int`` for integer columns, ``float`` otherwise).
    """
    if len(columns) == 1:
        values, inverse = np.unique(columns[0], return_inverse=True)
        results = [fn(v) for v in values.tolist()]
    else:
        keys = np.stack(columns, axis=1)
        values, inverse = np.unique(keys, axis=0, return_inverse=True)
        results = [fn(*row) for row in values.tolist()]
    return np.array(results)[inverse.reshape(-1)]

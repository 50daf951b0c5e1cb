"""Index arithmetic for variable-length segments stored back to back."""

from __future__ import annotations

import numpy as np


def segment_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions of the segments ``[start, start + length)``, back to back."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total, dtype=np.int64)

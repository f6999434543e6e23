"""Helpers shared by the test modules."""

import numpy as np


def records(batch):
    """Every record of `batch` as two whole arrays (x_a, x_b): copies of its
    chunks, concatenated in order (`chunks` overwrites one scratch pair)."""
    arms = [(x_a.copy(), x_b.copy()) for x_a, x_b in batch.chunks()]
    return tuple(np.concatenate(arm) for arm in zip(*arms))

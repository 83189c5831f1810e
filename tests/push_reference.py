"""The reference push the batched kernels are checked against.

push(labels, rows, m) pushes K label strings against the rows of one
matrix the way push_forward's np.add.at does: each cluster's rows are
added to 0.0 in ascending symbol position.
"""

import numpy as np


def push(labels: np.ndarray, rows: np.ndarray, m: int) -> np.ndarray:
    """(K, m, w) pushed-forward matrices of K label strings (K, n) against
    the rows of one (n, w) matrix."""
    out = np.zeros((len(labels), m, rows.shape[1]))
    at = np.arange(len(labels))
    for i in range(labels.shape[1]):
        out[at, labels[:, i]] += rows[i]
    return out

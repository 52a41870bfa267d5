"""Content-addressed cache for heat-kernel rows.

Keys are a cryptographic digest of the matrix shape and CSR bytes, the
time and the start set; hits return bit-identical arrays.  Entries cached
under an older key (dense bytes, a tolerance, or 17-digit entries) simply
miss and are recomputed.
"""

from __future__ import annotations

import hashlib
import logging
import os

import numpy as np

from .chain import StochasticMatrix

log = logging.getLogger(__name__)


def matrix_digest(P: StochasticMatrix) -> str:
    # P's CSR is read-only and canonical (sorted, no stored zeros), so its
    # shape and array bytes identify it.
    A = P.csr
    return hashlib.sha256(b"".join([repr(A.shape).encode("ascii"),
                                    A.indptr.tobytes(), A.indices.tobytes(),
                                    A.data.tobytes()])).hexdigest()


class HeatKernelCache:
    """File-backed cache; corrupt entries fall back to recomputation."""

    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, digest: str, t: float, starts) -> str:
        tag = "all" if starts is None else "-".join(str(s) for s in starts)
        key = hashlib.sha256(
            f"{digest}|{t!r}|{tag}".encode("ascii")).hexdigest()
        return os.path.join(self.directory, key + ".npy")

    def get_or_compute(self, P: StochasticMatrix, t: float, starts,
                       compute) -> np.ndarray:
        path = self._path(matrix_digest(P), t, starts)
        if os.path.exists(path):
            try:
                rows = np.load(path)
                expected = P.n if starts is None else len(starts)
                if rows.shape == (expected, P.n):
                    return rows
                raise ValueError(f"bad cached shape {rows.shape}")
            except Exception as exc:     # noqa: BLE001 - any corruption
                log.warning("corrupt cache entry %s (%s); recomputing",
                            path, exc)
        rows = np.atleast_2d(compute())
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            np.save(fh, rows)
        os.replace(tmp, path)
        return rows

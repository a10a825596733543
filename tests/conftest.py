"""Oracles shared by the test modules."""

import numpy as np
import pytest

from padicharm.padic import unit_part, val_p
from padicharm import pvszeta


def fold_residue_counts(per, p, k):
    """({(v, unit residue mod p^(k-v)): count}, zero count) from the counts
    of det per residue mod p^k."""
    counts = {}
    for tau in range(1, p**k):
        v = val_p(tau, p)
        key = (v, unit_part(tau, p, k - v))
        counts[key] = counts.get(key, 0) + int(per[tau])
    return counts, int(per[0])


@pytest.fixture(scope="session")
def sweep_counts():
    """The Sym_3(Z/p^k) fiber table folded from the sweep's count bins, which
    are indexed by (det mod p^(k+1), adj != 0 mod p)."""
    def table(p, k):
        pvszeta.precompute_jobs(p, k, (("count", None),))
        bins = pvszeta._SWEEP_CACHE[(p, k)][("count", None)]
        return fold_residue_counts(bins.reshape(p, p**k, 2).sum(axis=(0, 2)), p, k)
    return table


@pytest.fixture(scope="session")
def enumerated_counts():
    """The Sym_m(Z/p^k) fiber table by direct enumeration, m in {1, 2}."""
    def table(m, p, k):
        r = np.arange(p**k, dtype=np.int64)
        if m == 1:
            dets = r
        else:
            a, b, c = (x.ravel() for x in np.meshgrid(r, r, r, indexing="ij"))
            dets = a * c - b * b
        return fold_residue_counts(np.bincount(dets % p**k, minlength=p**k), p, k)
    return table

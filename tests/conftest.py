"""Oracles shared by the test modules."""

import numpy as np
import pytest

from padicharm.padic import unit_part, val_p
from oracles import sweep_bins


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
def sweep_oracle():
    """{job: refined bins} of the exhaustive Sym_3(Z/p^k) sweep
    (`oracles.sweep_bins`), the oracle of the recursion and the moved side of
    the homogeneity check.  One sweep per call, for the jobs not yet swept at
    (p, k) in this session."""
    swept = {}

    def bins(p, k, jobs):
        missing = [job for job in jobs if (p, k, job) not in swept]
        if missing:
            for job, b in sweep_bins(p, k, missing).items():
                swept[(p, k, job)] = b
        return {job: swept[(p, k, job)] for job in jobs}
    return bins


@pytest.fixture(scope="session")
def sweep_counts(sweep_oracle):
    """The Sym_3(Z/p^k) fiber table folded from the sweep's count bins over
    Sym_3(Z/p^(k+1)); each matrix mod p^k has p^6 lifts, all with its det."""
    def table(p, k):
        job = ("count", None, 3)
        bins = sweep_oracle(p, k, [job])[job]
        return fold_residue_counts(bins.reshape(p, p**k).sum(axis=0) // p**6, p, k)
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

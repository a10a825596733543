"""The exhaustive Sym_3(Z/p^k) sweep: the test oracle of the refined bins.

It visits every cell of Sym_3(Z/p^k), vectorized over the entry index
space, computes det mod p^(k+1), whether adj(Y) != 0 mod p and, for
Clifford ("rho") jobs, the Clifford sign of the integer lift by a case
analysis on the det valuation and the rank mod p (`_sigma_vec`).  Its bins
fold through the same adjugate refinement as the coset enumeration, so they
are comparable with `pvszeta._recursion_bins` and `pvszeta._coset_bins`.
"""

import numpy as np

from padicharm.pvszeta import (PvsError, _first_unit_diag_leg, _legendre_table,
                               _refine_bins, check_budget)


def _mask_vec(mask_spec, x11, x22, m12, m13, m23, m33):
    if mask_spec is None:
        return None
    residues, moduli = mask_spec
    entries = (x11, x22, m33, m12, m13, m23)
    sel = np.ones(m12.shape, dtype=bool)
    for ent, res, mo in zip(entries, residues, moduli):
        if mo > 1:
            sel &= (ent % mo) == (res % mo)
    return sel


def _sigma_vec(p, k, x11, x22, m12, m13, m23, m33, det, a11, a22, a33, adjnz, leg):
    """Vectorized Clifford sign of the integer lift.

    Exact cells (adj = 0 mod p, or det valuation < k) get the sign of their
    own det class; adj != 0 cells with det = 0 mod p^k get the sign of their
    valuation-k refinements, which is refinement-independent:

        v=0: +1                      v=1: L(-1) L(adj diag unit)
        v=2: rank 2 -> +1,           rank 1 -> L(-1) L(j) L(Y diag unit)
        v=3: rank 2 -> L(-1) L(adj), rank 1 -> L(-1) L(Ydiag) L(j) L(adj/p diag)
             rank 0 -> +1
    """
    lm1 = int(leg[(-1) % p])
    sigma = np.zeros(det.shape, dtype=np.int64)

    nz1 = det % p != 0
    sigma[nz1] = 1

    v1 = (~nz1) & (det % p**2 != 0)
    if np.any(v1):
        ladj = _first_unit_diag_leg(leg, p, a11, a22, a33)
        sigma[v1] = lm1 * ladj[v1]

    rank0 = ((x11 % p == 0) & (x22 % p == 0) & (m33 % p == 0)
             & (m12 % p == 0) & (m13 % p == 0) & (m23 % p == 0))
    rank1 = (~adjnz) & (~rank0)
    rank2 = adjnz & (det % p == 0)

    deep2 = det % p**2 == 0
    v2 = deep2 & (det % p**3 != 0)
    if np.any(v2):
        sigma[v2 & rank2] = 1
        sel = v2 & rank1
        if np.any(sel):
            lam1 = _first_unit_diag_leg(leg, p, x11, x22, m33)
            j2 = (det // p**2) % p
            sigma[sel] = lm1 * leg[j2[sel]] * lam1[sel]

    deep3 = det % p**3 == 0
    if k == 2:
        # spread cells target valuation-2 refinements: profile (0,0,2), +1
        sigma[deep3 & rank2] = 1
    else:
        sel = deep3 & rank2
        if np.any(sel):
            ladj = _first_unit_diag_leg(leg, p, a11, a22, a33)
            sigma[sel] = lm1 * ladj[sel]
        v3 = deep3 & (det % p**4 != 0)
        sel = v3 & rank1
        if np.any(sel):
            lam1 = _first_unit_diag_leg(leg, p, x11, x22, m33)
            j3 = (det // p**3) % p
            ladj1 = _first_unit_diag_leg(leg, p, a11 // p, a22 // p, a33 // p)
            sigma[sel] = lm1 * lam1[sel] * leg[j3[sel]] * ladj1[sel]
        sel = v3 & rank0
        if np.any(sel):
            sigma[sel] = 1
    return sigma


def _sweep3_block(p, k, jobs, x11_range):
    """One outer block of the Sym_3(Z/p^k) sweep.

    Bin layouts (key4 = integer det mod p^{k+1}, adjnz = adj(Y) != 0 mod p):
      ("count", mask):       index (key4, adjnz)                -> 2 p^{k+1}
      ("rho", mask, C):      index (key4, adjnz, rho-sign, t)   -> 2 p^{k+1} 2 p
    with t = tr(Y C) mod p; the psi orientation only enters at assembly.
    """
    mod = p**k
    mod4 = p ** (k + 1)
    leg = _legendre_table(p)
    r = np.arange(mod, dtype=np.int64)
    m12, m13, m23, m33 = (a.ravel() for a in np.meshgrid(r, r, r, r, indexing="ij"))
    out = {}
    for job in jobs:
        size = 2 * mod4 if job[0] == "count" else 2 * mod4 * 2 * p
        out[job] = np.zeros(size, dtype=np.int64)
    need_sigma = any(job[0] == "rho" for job in jobs)

    for x11 in x11_range:
        for x22 in range(mod):
            A = x11 * x22 - m12 * m12
            det = (m33 * A + 2 * m12 * m13 * m23
                   - x11 * m23 * m23 - x22 * m13 * m13)
            key4 = det % mod4
            a11 = x22 * m33 - m23 * m23
            a22 = x11 * m33 - m13 * m13
            a33 = A
            a12 = -(m12 * m33 - m23 * m13)
            a13 = m12 * m23 - x22 * m13
            a23 = -(x11 * m23 - m12 * m13)
            adjnz = ((a11 % p != 0) | (a22 % p != 0) | (a33 % p != 0)
                     | (a12 % p != 0) | (a13 % p != 0) | (a23 % p != 0))
            if need_sigma:
                sigma = _sigma_vec(p, k, x11, x22, m12, m13, m23, m33,
                                   det, a11, a22, a33, adjnz, leg)
            for job in jobs:
                sel = _mask_vec(job[1], x11, x22, m12, m13, m23, m33)
                if job[0] == "count":
                    bins = key4 * 2 + adjnz
                    if sel is None:
                        out[job] += np.bincount(bins, minlength=2 * mod4)
                    else:
                        out[job] += np.bincount(bins[sel], minlength=2 * mod4)
                else:
                    _, _, C = job
                    if (sigma == 0).any():
                        bad = (sigma == 0) & (key4 != 0)
                        if sel is not None:
                            bad &= sel
                        if bad.any():
                            raise PvsError(
                                "Clifford sign undefined on a consumed class")
                    if C is None:
                        tvals = np.zeros(det.shape, dtype=np.int64)
                    else:
                        tvals = (x11 * C[0][0] + x22 * C[1][1] + m33 * C[2][2]
                                 + 2 * (m12 * C[0][1] + m13 * C[0][2]
                                        + m23 * C[1][2])) % p
                    s01 = ((1 - sigma) // 2).astype(np.int64)
                    bins = ((key4 * 2 + adjnz) * 2 + s01) * p + tvals
                    usable = sigma != 0
                    if sel is not None:
                        usable &= sel
                    out[job] += np.bincount(bins[usable], minlength=2 * mod4 * 2 * p)
    return out


def sweep_bins(p: int, k: int, jobs) -> dict:
    """{job: refined bins} from one exhaustive sweep of Sym_3(Z/p^k), the
    oracle of the recursion and of the coset enumeration."""
    check_budget(float(p) ** (6 * k))
    if k < 2 and any(job[0] == "rho" for job in jobs):
        raise PvsError("Clifford-weighted sweeps need k >= 2")
    raw = _sweep3_block(p, k, tuple(jobs), range(p ** k))
    return {job: _refine_bins(raw[job], job, p, k) for job in jobs}

"""The benchmark's workloads: what each one runs and how its outputs are checked.

A workload is a list of steps.  A step calls the program (a CLI verb through
`padicharm.cli.run`, or a public library function where no verb exists) and
then checks the output with references computed here, apart from the code
under test: exact `Fraction` series, closed-form gamma factors, and counting
identities.  Every step declares how many operations it attempts, so a run
attempts the same number whatever its outputs are.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

FE_PVS_TOL = 1e-6        # prehomogeneous FE, both sides from their own sweeps
FE_GL1_TOL = 1e-8        # GL(1) FE, the acceptance tolerance
INVERSION_TOL = 1e-6     # n = 0 Fourier operator applied twice
PLANCHEREL_TOL = 1e-4    # truncated Plancherel identity
SHELLS_TOL = 1e-5        # shell sums against the gamma factor
TATE_TOL = 1e-6          # brute-force Tate integrals against the gamma factor
TATE_S = (0.3, 0.5, 0.7)


@dataclass(frozen=True)
class Step:
    label: str
    ops: int
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass(frozen=True)
class Sizes:
    """fe_pvs: Sym_3(Z/p^k); gl1: characters mod p^level (fourier-n0 at its own p)."""
    pvs_p: int
    pvs_k: int
    gl1_p: int
    fe_gl1_level: int
    tate_level: int
    fourier_p: int
    fourier_level: int
    shells_level: int


FULL = Sizes(pvs_p=5, pvs_k=2, gl1_p=5, fe_gl1_level=1, tate_level=2, fourier_p=3,
             fourier_level=2, shells_level=1)
FAST = Sizes(pvs_p=3, pvs_k=2, gl1_p=3, fe_gl1_level=1, tate_level=1, fourier_p=3,
             fourier_level=1, shells_level=1)


def _units(p: int, level: int) -> list[int]:
    return [u for u in range(1, p**level) if u % p]


def _cli(argv):
    from padicharm import cli

    def call():
        report, code = cli.run([str(a) for a in argv])
        return {"report": report, "code": code}
    return call


def _report_checks(out, ops, ok):
    """One boolean per expected report check; missing checks count as failed."""
    checks = out["report"].get("checks", [])
    got = [c["status"] == "pass" and ok(c) for c in checks[:ops]]
    return got + [False] * (ops - len(got))


def _deviation_at_most(tol):
    return lambda c: c["max_deviation"] is not None and c["max_deviation"] <= tol


# ------------------------------------------------------------------ fe_pvs

def taylor_coefficients(p: int, count: int) -> list[Fraction]:
    """Coefficients of 1/((1 - z)(1 - z^2/p)) up to z^(count-1), exactly."""
    geometric = [Fraction(1)] * count
    even = [Fraction(1, p ** (v // 2)) if v % 2 == 0 else Fraction(0)
            for v in range(count)]
    return [sum(geometric[j] * even[v - j] for j in range(v + 1)) for v in range(count)]


def _check_counts(p: int, k: int):
    """Counts of det over Sym_3(Z/p^k) against Igusa's closed form.

    The table must sum to p^(6k).  On shells v < k every level-1 class of
    unit residues u mod p must have the average fiber density
    count / (p^(5k) * #classes) = (1 - p^-3) * [z^v] 1/((1 - z)(1 - z^2/p)).
    """
    want = [(1 - Fraction(1, p**3)) * c for c in taylor_coefficients(p, k)]

    def check(out):
        payload = out["report"].get("payload", {})
        rows = payload.get("fiber_counts", [])
        total = sum(r["count"] for r in rows) + payload.get("zero_count", 0)
        results = [out["code"] == 0 and total == p ** (6 * k)]
        for v in range(k):
            per_unit_residue = p ** (k - v - 1)
            for u in range(1, p):
                count = sum(r["count"] for r in rows
                            if r["ord_class"] == v and r["unit_coset"] % p == u)
                results.append(Fraction(count, p ** (5 * k) * per_unit_residue) == want[v])
        return results
    return check


def fe_pvs(seed: int, sizes: Sizes) -> list[Step]:
    p, k = sizes.pvs_p, sizes.pvs_k
    sign = 1 if seed % 2 == 0 else -1
    return [
        Step("verify fe-pvs", p - 1,
             _cli(["verify", "fe-pvs", "--p", p, "--n", 1, "--k", k,
                   "--psi-sign", sign, "--seed", seed]),
             lambda out: _report_checks(out, p - 1, _deviation_at_most(FE_PVS_TOL))),
        Step("count-fibers", 1 + k * (p - 1),
             _cli(["count-fibers", "--p", p, "--k", k, "--m", 3]),
             _check_counts(p, k)),
    ]


# --------------------------------------------------------------------- gl1

def character_values(chi) -> dict:
    return {u: chi.value(u) for u in _units(chi.p, chi.level)}


def conductor_of(values: dict, p: int, level: int) -> int:
    """Least e with the character trivial on units = 1 mod p^e."""
    for e in range(level + 1):
        if all(abs(x - 1) < 1e-9 for u, x in values.items() if (u - 1) % p**e == 0):
            return e
    raise ValueError("character is not trivial on 1 + p^level")


def gamma_closed_form(values: dict, p: int, level: int, s: complex, sign: int) -> complex:
    """Tate's gamma(s, chi, psi) for chi(p) = 1 and psi of conductor Z_p.

    Unramified: (1 - q^-s) / (1 - q^(s-1)).  Conductor e >= 1: the epsilon
    factor G q^(-e s), with G = sum over (Z/p^e)^x of chi^-1(u) psi(u / p^e).
    """
    q = float(p)
    e = conductor_of(values, p, level)
    if e == 0:
        return (1 - q ** (-s)) / (1 - q ** (s - 1))
    gauss = sum(values[u].conjugate() * cmath.exp(2j * cmath.pi * sign * u / p**e)
                for u in _units(p, e))
    return gauss * q ** (-e * s)


def _check_shells(p: int, level: int, s: float):
    """The shell sum must equal gamma(1/2 - s, chi^-1, psi)."""
    def check(out):
        from padicharm.abelian import UnitCharacter
        payload = out["report"].get("payload", {})
        first = _report_checks(out, 1, _deviation_at_most(SHELLS_TOL))
        if "sum" not in payload:
            return first + [False]
        chi = UnitCharacter(p, level, payload["chi"]["exponent"])
        inverse = {u: x.conjugate() for u, x in character_values(chi).items()}
        target = gamma_closed_form(inverse, p, level, 0.5 - s, 1)
        got = complex(*payload["sum"])
        return first + [abs(got - target) / max(1.0, abs(target)) <= SHELLS_TOL]
    return check


def _tate_direct(p: int, level: int):
    """Brute-force Tate gamma for every character mod p^level."""
    def run():
        from padicharm.abelian import characters, tate_gamma_oracle
        return [(chi, [tate_gamma_oracle(chi, s) for s in TATE_S])
                for chi in characters(p, level)]
    return run


def _check_tate_direct(p: int, level: int, ops: int):
    def check(out):
        got = []
        for chi, oracle in out[:ops]:
            values = character_values(chi)
            want = [gamma_closed_form(values, p, level, s, 1) for s in TATE_S]
            got.append(all(abs(a - b) / max(1.0, abs(b)) <= TATE_TOL
                           for a, b in zip(oracle, want)))
        return got + [False] * (ops - len(got))
    return check


def _n_characters(p: int, level: int) -> int:
    return (p - 1) * p ** (level - 1)


def gl1(seed: int, sizes: Sizes) -> list[Step]:
    p, fe_level = sizes.gl1_p, sizes.fe_gl1_level
    pairs = 3 * _n_characters(p, fe_level)    # three random functions per character
    steps = [
        Step(f"verify fe-gl1 n={n}", pairs,
             _cli(["verify", "fe-gl1", "--p", p, "--level", fe_level, "--n", n,
                   "--seed", seed]),
             lambda out: _report_checks(out, pairs, _deviation_at_most(FE_GL1_TOL)))
        for n in (0, 1)
    ]
    fp, fl = sizes.fourier_p, sizes.fourier_level
    limits = {"double-transform": INVERSION_TOL, "plancherel-truncated": PLANCHEREL_TOL}
    steps.append(Step(
        "fourier-n0", 2,
        _cli(["fourier-n0", "--p", fp, "--level", fl, "--seed", seed]),
        lambda out: _report_checks(
            out, 2, lambda c: _deviation_at_most(limits.get(c["name"], -1.0))(c))))
    sl, s = sizes.shells_level, 0.7
    for conductor in (0, 1):
        steps.append(Step(
            f"shells conductor={conductor}", 2,
            _cli(["shells", "--p", p, "--level", sl, "--conductor", conductor, "--s", s]),
            _check_shells(p, sl, s)))
    level = sizes.tate_level
    n_chars = _n_characters(p, level)
    steps.append(Step(
        "tate-oracle", n_chars,
        _cli(["tate-oracle", "--p", p, "--level", level, "--conductor", level]),
        lambda out: _report_checks(out, n_chars, _deviation_at_most(TATE_TOL))))
    steps.append(Step("tate_gamma_oracle", n_chars, _tate_direct(p, level),
                      _check_tate_direct(p, level, n_chars)))
    return steps


WORKLOADS = {"fe_pvs": fe_pvs, "gl1": gl1}

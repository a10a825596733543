"""Command-line surface: compute factors, run verifiers, emit reports.

Verbs: gamma, beta, eta-table, verify fe-gl1, verify fe-pvs, count-fibers,
symplectic-check, tate-oracle, fourier-n0, shells, phi-eval.  Reports are
JSON (canonical) or CSV (count tables); exit code 0 iff every check passed,
1 on check failure, 2 on usage errors, invalid parameters and domain errors
raised outside a check (reported as JSON with an "error" field).  Flags are
read from the one table FLAGS, as --name value or --name=value.  A config
file, when given, overrides the flags it names (padic.CONFIG_KEYS); flags
override defaults.  Reports are
byte-identical for a fixed --seed (runtimes are only emitted under --timing).
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import random
import sys
import time
from itertools import islice
from types import SimpleNamespace

from . import PadicharmError

SCHEMA_VERSION = 1


class UsageError(PadicharmError):
    pass


def _character(p, level, conductor_wanted):
    """The character of least exponent with the wanted conductor e: exponent
    0 at e = 0, else p^(level-e), as `abelian.conductor` is level - v_p(a)."""
    from .abelian import UnitCharacter
    if not 0 <= conductor_wanted <= level:
        raise UsageError(f"no character of conductor {conductor_wanted} at level {level}")
    return UnitCharacter(p, level, p ** (level - conductor_wanted) if conductor_wanted else 0)


def _check(name, fn, tolerance, timing):
    t0 = time.perf_counter()
    try:
        dev = fn()
        if not math.isfinite(dev):
            # no tolerance passes it, and JSON has no number for it
            raise ArithmeticError(f"non-finite deviation {dev}")
        out = {"name": name, "status": "pass" if dev <= tolerance else "fail",
               "max_deviation": float(dev)}
    except Exception as exc:   # noqa: BLE001 - reported, not swallowed
        out = {"name": name, "status": "error", "error": str(exc),
               "max_deviation": None}
    if timing:
        out["runtime_ms"] = round(1000 * (time.perf_counter() - t0), 3)
    return out


# ------------------------------------------------------------------- verbs

def _chi_json(chi, conductor_wanted):
    from .padic import unit_group
    gen = unit_group(chi.p, chi.level)[1]
    gi = chi.value(gen)
    return {"p": chi.p, "level": chi.level, "exponent": chi.exponent,
            "generator_image": [gi.real, gi.imag], "conductor": conductor_wanted}


def cmd_gamma(args):
    from .abelian import gamma_factor
    chi = _character(args.p, args.level, args.conductor)
    g = gamma_factor(chi, args.psi_sign)
    return {"factor": "gamma", "chi": _chi_json(chi, args.conductor),
            "result": g.to_json()}, []


def cmd_beta(args):
    from .abelian import beta_factor
    chi = _character(args.p, args.level, args.conductor)
    b = beta_factor(args.n, chi, args.psi_sign)
    return {"factor": "beta", "n": args.n, "chi": _chi_json(chi, args.conductor),
            "result": b.to_json()}, []


def cmd_eta_table(args):
    from .abelian import coset_values
    from .fxspace import eta_components
    from .padic import unit_group
    cosets = unit_group(args.p, args.level)[0]
    ks = range(args.kmin, args.kmax + 1)
    table = coset_values(eta_components(args.n, args.psi_sign, args.kmin, args.kmax,
                                        args.p, args.level)) if ks else []
    rows = [{"ord": k, "coset": u, "re": v.real, "im": v.imag}
            for k, vals in zip(ks, table) for u, v in zip(cosets, vals)]
    return {"eta": rows, "n": args.n, "p": args.p, "level": args.level}, []


def _verify_fe(args, verb, functions, build_sides, compare, level):
    """One check per test function and character mod p^level, named
    verb[name,chi^j]; a function's sides are built in its first check, so
    that --timing charges the build there."""
    from .abelian import characters
    checks = []
    for name, f in functions:
        sides = []
        for chi in characters(args.p, level):
            def dev(f=f, chi=chi, sides=sides):
                if not sides:
                    sides.append(build_sides(f))
                return compare(sides[0], args.n, chi, args.psi_sign)
            checks.append(_check(f"{verb}[{name},chi^{chi.exponent}]", dev,
                                 args.tolerance, args.timing))
    return checks


def cmd_verify_fe_gl1(args, rng):
    from .fxspace import FxFunction, TailSpec, fe_gl1_compare, fe_gl1_sides
    from .padic import unit_group
    cosets = unit_group(args.p, args.level)[0]
    functions = []    # drawn before any check runs; no check reads the rng
    for idx in range(3):
        vals = {(k, u): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for k in range(-1, 2) for u in cosets}
        f = FxFunction(args.p, args.level, -1, 2, vals, TailSpec.compact())
        functions.append((f"f{idx}", f))
    checks = _verify_fe(args, "fe-gl1", functions,
                        lambda f: fe_gl1_sides(f, args.n, args.psi_sign),
                        fe_gl1_compare, args.level)
    return {"verified": "fe-gl1", "n": args.n}, checks


def cmd_verify_fe_pvs(args, rng):
    from .pvszeta import LatticeTestFunction, fe_pvs_compare, fe_pvs_sides
    if args.n == 0:
        functions = [("interval", LatticeTestFunction.dilated(1, 0))]
    else:
        eye = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
        functions = [("spherical", LatticeTestFunction.spherical(3))]
        if args.k >= 3:
            functions.append(("shifted", LatticeTestFunction.shifted(eye, 1)))
            functions.append(("dilated", LatticeTestFunction.dilated(3, 1)))
    checks = _verify_fe(args, "fe-pvs", functions,
                        lambda Phi: fe_pvs_sides(Phi, args.n, args.p, args.k, args.psi_sign),
                        fe_pvs_compare, 1)
    return {"verified": "fe-pvs", "n": args.n, "k": args.k}, checks


def cmd_count_fibers(args):
    from .pvszeta import det_fiber_counts
    table = det_fiber_counts(args.m, args.p, args.k)
    rows = [{"ord_class": v, "unit_coset": u, "count": c}
            for v, u, c in table.rows()]
    return {"fiber_counts": rows, "zero_count": table.zero_count,
            "total": table.total, "m": args.m, "p": args.p, "k": args.k}, []


def cmd_symplectic_check(args, rng):
    from . import symplectic as sp
    checks = []
    n = args.n

    def std_ok():
        sp.standard_elements(n)   # raises on failure
        return 0.0
    checks.append(_check("standard-elements", std_ok, 0.0, args.timing))

    def cayley_roundtrip():
        for _ in range(30):
            h = sp.random_symplectic(n, rng)
            x = sp.cayley_inv(h, n)
            if not sp.mat_eq(sp.cayley(x, n), h):
                return 1.0
        return 0.0
    checks.append(_check("cayley-roundtrip", cayley_roundtrip, 0.0, args.timing))

    def factorization():
        done = 0
        while done < 20:
            try:
                sp.siegel_factorize(sp.random_symmetric(n, rng), n)
            except sp.CayleyPoleError:
                continue
            done += 1
        return 0.0
    checks.append(_check("siegel-factorization", factorization, 0.0, args.timing))

    def order_check():
        order, c0 = sp.sp_order(n, args.p)
        # at n = 1 the formula's order must also be the direct count of SL_2(F_p)
        if c0 != sp.c0_constant(n, args.p) or (n == 1 and order != sp.sl2_order(args.p)):
            return 1.0
        return 0.0
    checks.append(_check("group-order-c0", order_check, 0.0, args.timing))
    return {"verified": "symplectic", "n": n}, checks


def cmd_tate_oracle(args):
    from .abelian import characters, conductor, gamma_factor, tate_gamma_oracle
    checks = []
    for chi in characters(args.p, args.level):
        if conductor(chi) > args.conductor:
            continue

        def dev(chi=chi):
            g = gamma_factor(chi, args.psi_sign)
            worst = 0.0
            for s in (0.3, 0.5, 0.7):
                gz = g(complex(args.p) ** (-s))
                got = tate_gamma_oracle(chi, s, args.psi_sign)
                worst = max(worst, abs(got - gz) / max(1.0, abs(gz)))
            return worst
        checks.append(_check(f"tate-oracle[chi^{chi.exponent}]", dev,
                             args.tolerance, args.timing))
    return {"verified": "tate-oracle", "p": args.p}, checks


# shells judges its partial sums at this relative deviation from the gamma value
SHELLS_TOL = 1e-5


# fourier-n0 tabulates the transform, and sums both sides of Plancherel, on
# the shells -FOURIER_RADIUS..FOURIER_RADIUS
FOURIER_RADIUS = 12


def cmd_fourier_n0(args, rng, phi):
    from .fxspace import FxFunction, TailSpec
    from .gdist import fourier_n0, fourier_n0_table, l2_norm_fx, l2_norm_truncated
    from .padic import unit_group
    cosets = unit_group(args.p, args.level)[0]
    if phi is None:
        vals = {(k, u): complex(rng.uniform(-1, 1))
                for k in range(0, 2) for u in cosets}
        phi = FxFunction(args.p, args.level, 0, 2, vals, TailSpec.compact())
    table = {}

    def transform():
        if not table:
            table.update(fourier_n0_table(phi, -FOURIER_RADIUS, FOURIER_RADIUS,
                                          sign=args.psi_sign))
        return table

    checks = []

    def inversion():
        ks = [k for k, _ in transform()]
        G = FxFunction(args.p, args.level, min(ks), max(ks) + 1,
                       {ku: complex(v) for ku, v in table.items()},
                       TailSpec.compact())
        points = [(k, u) for k in range(0, 2) for u in cosets]
        got = fourier_n0(G, points, sign=-args.psi_sign)
        return max(abs(g - phi.evaluate(k, u)) for g, (k, u) in zip(got, points))
    # two routes: the table is a character-space product, its inverse the pv kernel sums
    checks.append(_check("double-transform", inversion, 1e-6, args.timing))

    def plancherel():
        return abs(l2_norm_truncated(transform(), args.p, args.level, FOURIER_RADIUS)
                   - l2_norm_fx(phi, FOURIER_RADIUS))
    checks.append(_check("plancherel-truncated", plancherel, 1e-4, args.timing))
    payload = {
        "verified": "fourier-n0",
        "input": phi.to_json(),
        "transform": [
            {"k": k, "coset": u, "re": v.real, "im": v.imag}
            for (k, u), v in sorted(table.items()) if abs(v) > 1e-12
        ],
    }
    return payload, checks


def cmd_shells(args):
    from .gdist import shell_coefficients_sum
    chi = _character(args.p, args.level, args.conductor)
    rep = {}

    def deviation():
        rep.update(shell_coefficients_sum(chi, args.s, sign=args.psi_sign))
        return rep["deviation"]
    checks = [_check("shells-vs-gamma", deviation, SHELLS_TOL, args.timing)]
    payload = {
        "chi": {"p": args.p, "exponent": chi.exponent, "conductor": args.conductor},
        "s": args.s,
    }
    if rep:
        payload["coefficients"] = [
            {"ell": ell, "re": c.real, "im": c.imag}
            for ell, c in sorted(rep["coefficients"].items())
        ]
        payload["sum"] = [rep["sum"].real, rep["sum"].imag]
        payload["target"] = [rep["target"].real, rep["target"].imag]
    return payload, checks


def cmd_phi_eval(args, rng):
    from . import symplectic as sp
    from .gdist import GPoint, phi_rho_eval
    from .padic import PadicElement
    a = PadicElement(p=args.p, valuation=args.ord, unit=args.unit, level=args.level)
    if args.n == 0:
        v = phi_rho_eval(GPoint(a, ()), args.level, args.psi_sign)
        return {"phi": [v.real, v.imag], "n": 0}, []
    h = sp.random_symplectic(args.n, rng)
    point = GPoint(a, tuple(map(tuple, h)))
    v = phi_rho_eval(point, args.level, args.psi_sign)
    checks = []

    def inv_symmetry():
        w = phi_rho_eval(GPoint(a, tuple(map(tuple, sp.inverse(h)))), args.level, args.psi_sign)
        return abs(w - v)
    checks.append(_check("phi(h)=phi(h^-1)", inv_symmetry, 1e-9, args.timing))
    return {"phi": [v.real, v.imag], "n": args.n,
            "h": [[str(x) for x in row] for row in h]}, checks


# every verb: its command, called with the parsed flags, a Random(--seed)
# and the --fx-in function (or None)
VERBS = {
    "gamma": lambda args, rng, phi: cmd_gamma(args),
    "beta": lambda args, rng, phi: cmd_beta(args),
    "eta-table": lambda args, rng, phi: cmd_eta_table(args),
    "verify fe-gl1": lambda args, rng, phi: cmd_verify_fe_gl1(args, rng),
    "verify fe-pvs": lambda args, rng, phi: cmd_verify_fe_pvs(args, rng),
    "count-fibers": lambda args, rng, phi: cmd_count_fibers(args),
    "symplectic-check": lambda args, rng, phi: cmd_symplectic_check(args, rng),
    "tate-oracle": lambda args, rng, phi: cmd_tate_oracle(args),
    "fourier-n0": cmd_fourier_n0,
    "shells": lambda args, rng, phi: cmd_shells(args),
    "phi-eval": lambda args, rng, phi: cmd_phi_eval(args, rng),
}


# ------------------------------------------------------------------ driver

def emit(report: dict, fmt: str, out) -> None:
    """Write the report to the text stream out: JSON in blocks of 4096 encoder
    chunks (one write each, as stdout writes through to its buffer), or the
    count table as CSV, raising UsageError before any write if there is none."""
    if fmt == "json":
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
        for block in iter(lambda: "".join(islice(chunks, 4096)), ""):
            out.write(block)
        out.write("\n")
        return
    rows = report.get("payload", {}).get("fiber_counts")
    if rows is None:
        raise UsageError("CSV output is only available for count tables")
    w = csv.writer(out)
    w.writerow(["ord_class", "unit_coset", "count"])
    for row in rows:
        w.writerow([row["ord_class"], row["unit_coset"], row["count"]])


# every flag: (type, default, choices); --timing, of type bool, is the one
# switch and takes no value.  A flag's field is its name with "-" as "_".
FLAGS = {
    "config": (str, None, None),        # key=value config file (overrides the flags it names)
    "p": (int, 3, None),
    "n": (int, 1, None),
    "level": (int, 2, None),
    "conductor": (int, 0, None),
    "k": (int, 2, None),
    "m": (int, 3, None),
    "s": (float, 0.7, None),
    "ord": (int, 0, None),
    "unit": (int, 1, None),
    "kmin": (int, -3, None),
    "kmax": (int, 3, None),
    "tolerance": (float, 1e-6, None),
    "fx-in": (str, None, None),         # shell-function JSON to transform (fourier-n0)
    "psi-sign": (int, 1, (1, -1)),
    "seed": (int, 0, None),
    "timing": (bool, False, None),
    "out": (str, None, None),           # write the report to this path
    "format": (str, "json", ("json", "csv")),
}


def usage() -> str:
    """The --help text: the verbs and the flag table."""
    lines = ["usage: padicharm VERB [--flag value | --flag=value ...]",
             "p-adic harmonic analysis on GL(1) and extended symplectic groups",
             "verbs: " + ", ".join(VERBS), "flags:"]
    for flag, (kind, default, choices) in FLAGS.items():
        if kind is bool:
            lines.append(f"  --{flag}")
            continue
        among = f" in {{{', '.join(map(str, choices))}}}" if choices else ""
        fallback = "" if default is None else f", default {default}"
        lines.append(f"  --{flag} {kind.__name__}{among}{fallback}")
    return "\n".join(lines) + "\n"


def parse_args(argv) -> SimpleNamespace:
    """The fields of FLAGS and the verb, a list of the words not starting
    with "--"; UsageError names an unknown flag, a missing, mistyped or
    unlisted value, or an empty verb."""
    fields = {flag: default for flag, (_, default, _) in FLAGS.items()}
    verb = []
    words = iter(argv)
    for word in words:
        if not word.startswith("--"):
            verb.append(word)
            continue
        flag, has_value, value = word[2:].partition("=")
        if flag not in FLAGS:
            raise UsageError(f"unknown flag --{flag}")
        kind, _, choices = FLAGS[flag]
        if kind is bool:
            if has_value:
                raise UsageError(f"--{flag} takes no value")
            fields[flag] = True
            continue
        if not has_value:
            value = next(words, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"--{flag} needs a value")
        try:
            fields[flag] = kind(value)
        except ValueError:
            raise UsageError(f"--{flag}: {value!r} is not a valid {kind.__name__}") from None
        if choices and fields[flag] not in choices:
            raise UsageError(f"--{flag} must be one of {', '.join(map(str, choices))}, "
                             f"got {value}")
    if not verb:
        raise UsageError("no verb: one of " + ", ".join(VERBS))
    return SimpleNamespace(verb=verb, **{f.replace("-", "_"): v for f, v in fields.items()})


def _read_inputs(args):
    """Apply --config and --fx-in, whose numbers must be integers where they
    index and finite where they are values; returns the --fx-in function or
    None."""
    from .fxspace import FxFunction
    from .padic import load_config
    phi = None
    try:
        if args.config:
            for flag, value in load_config(args.config).items():
                setattr(args, flag, value)
        if args.fx_in:
            with open(args.fx_in) as fh:
                phi = FxFunction.from_json(json.load(fh))
            if any(type(x) is not int for x in (phi.p, phi.level, phi.k_min, phi.k_tail,
                                                *(x for ku in phi.values for x in ku))):
                raise UsageError("unreadable input file: p, level, k_min, k_tail and "
                                 "each shell's k and coset must be integers")
            values = [*phi.values.values(), *(v for row in phi.tail.rows for v in row)]
            if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values):
                raise UsageError("unreadable input file: shell and tail values must be finite")
            args.p, args.level = phi.p, phi.level
    except PadicharmError:
        raise
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"unreadable input file: {exc}") from exc
    return phi


def _validate(args, verb, phi):
    """The one input boundary: p an odd prime, n >= 0, level, k, m >= 1, a
    finite tolerance >= 0, shells at a finite s > -1/2 (where its sums
    converge), --fx-in shells on unit cosets 1 <= u < p^level inside the
    window k_min <= k < k_tail (checked once p and level are bounded, as
    p^level of an unchecked level is unbounded), and the rows a verb builds
    within ROW_BUDGET: the phi(p^level) units of the level, the (|ord| + 1)
    terms of each unit's eta series in phi-eval, the (kmax - kmin + 1) phi
    rows of an eta table and its (kmax + 1) series terms per unit, and the
    p^k rows of a count table.
    shells sums the shells ell <= ELL_MAX; at conductor 0 shell ell >= 0 adds
    (1 - 1/q) q^-(ell (s + 1/2)), so twice q^-((ELL_MAX + 1)(s + 1/2)) must be
    within SHELLS_TOL: s > -0.31786 at p = 3 (s = -0.45 read 3.6e-2 there).
    verify fe-pvs needs n <= 1, k >= 2 (the depth of its series cross-check)
    and 2 p^(k+2) <= ROW_BUDGET: that keeps p <= 13 at k >= 3, below the
    p = 41 where the k = 3 series cross-check of the shifted function fails
    (1.2e-12 > SERIES_TOL; p = 37 passes in 1.6 s), and p <= 23 at k = 2,
    below the p = 59 where the float partial fractions of the exact series
    stop cancelling.  verify fe-gl1 needs n <= 2: from n = 3 the
    float partial fractions of the Fourier operator's Mellin components lose
    the poles to rounding (at p = 5, level 2, n = 4 every check fails), until
    pole arithmetic is exact.  tate-oracle averages over every unit mod
    p^level once per character of conductor <= c, phi(p^c) of them (1 at
    c = 0), so that product must be within ROW_BUDGET too: 7.1e5 at
    (p, level, c) = (3, 7, 6) takes about 2.4 s, while 2.1e6 at (3, 7, 7)
    takes about 7 s and 1e8 at (101, 2, 2) runs for minutes.
    symplectic-check needs 1 <= n <= 4: Sp_0 is trivial, and its exact
    checks eliminate over 2n x 2n rational matrices whose entries grow with
    n, 0.4 s at n = 4, 0.8 s at n = 5, 1.6 s at n = 6 and 8 s at n = 8; at
    n = 1 it counts SL_2(F_p) over all p^4 matrices, so p^4 <= ROW_BUDGET:
    p <= 31.
    fourier-n0 inverts its table pointwise: each of its 2 units points sums
    every shell of the table against units cosets, so units^2 <= ROW_BUDGET
    (p = 3 to level 6, p = 5 to level 4, p <= 997 at level 1).  The slowest
    accepted input, p = 997 at level 1, takes about 2.5 s, and p = 3 at
    level 7 would take 7-9 s.  An --fx-in must be compactly supported, as
    only then are the kernel sums of its transform finite.  Its window
    k_min <= k < k_tail widens the table's eta reads to
    (k_tail - k_min + 2 FOURIER_RADIUS) rows and each unit's eta series to
    the shell k_tail - 1 + FOURIER_RADIUS, each times units within
    ROW_BUDGET, as for an eta table: at the corner, p = 3 at level 1 with
    shells 499975 apart, it takes about 1.9 s."""
    from .padic import LocalFieldConfig
    from .pvszeta import ROW_BUDGET, check_rows
    LocalFieldConfig(args.p)
    for name, low in (("n", 0), ("level", 1), ("k", 1), ("m", 1)):
        if getattr(args, name) < low:
            raise UsageError(f"--{name} must be >= {low}, got {getattr(args, name)}")
    # past level 20 the units are over budget at every p, so the power stops there
    units = (args.p - 1) * float(args.p) ** min(args.level - 1, 20)
    check_rows(units)
    if phi is not None:
        if phi.k_min > phi.k_tail:
            raise UsageError(f"invalid input file: k_min = {phi.k_min} > k_tail = {phi.k_tail}")
        for k, u in phi.values:
            if not (phi.k_min <= k < phi.k_tail and 0 < u < phi.p ** phi.level and u % phi.p):
                raise UsageError(f"invalid input file: shell (k={k}, coset={u}) is not on a "
                                 f"unit coset 1 <= u < p^level with k_min <= k < k_tail")
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise UsageError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    if verb == "shells":
        from .gdist import ELL_MAX
        s_min = -0.5 + (math.log(2 / SHELLS_TOL) / ((ELL_MAX + 1) * math.log(args.p))
                        if args.conductor == 0 else 0)
        if not (math.isfinite(args.s) and args.s > s_min):
            raise UsageError(f"shells needs a finite --s > {s_min:.6f} at conductor "
                             f"{args.conductor}: its sums stop at shell {ELL_MAX}, got {args.s}")
    elif verb == "count-fibers":
        check_rows(float(args.p) ** args.k)
        # every count is at most p^(k d); Python prints ints of up to 4300 digits
        if args.k * args.m * (args.m + 1) // 2 * math.log10(args.p) >= 4300:
            raise UsageError(f"count-fibers: p^(k m(m+1)/2) has over 4300 digits at --m {args.m}")
    elif verb == "phi-eval":
        check_rows(units * (abs(args.ord) + 1))
    elif verb == "eta-table":
        check_rows((args.kmax - args.kmin + 1) * units)
        check_rows(units * (max(args.kmax, 0) + 1))
    elif verb == "tate-oracle":
        c = min(args.conductor, args.level)
        check_rows(units * ((args.p - 1) * float(args.p) ** (c - 1) if c > 0 else 1))
    elif verb == "symplectic-check":
        if args.n < 1:
            raise UsageError(f"symplectic-check needs --n >= 1: Sp_0 is trivial, got {args.n}")
        if args.n > 4:
            raise UsageError(f"symplectic-check needs --n <= 4: its exact elimination over "
                             f"2n x 2n rational matrices slows with n, got {args.n}")
        if args.n == 1 and args.p ** 4 > ROW_BUDGET:
            raise UsageError(f"symplectic-check at --n 1 counts SL_2(F_p) over all p^4 = "
                             f"{args.p ** 4} matrices, past the budget of {ROW_BUDGET}")
    elif verb == "fourier-n0":
        check_rows(units * units)
        if phi is not None:
            if phi.tail.kind != "compact":
                raise UsageError(f"fourier-n0 needs a compactly supported --fx-in, as its "
                                 f"kernel sums are finite only then; got a {phi.tail.kind} tail")
            check_rows((phi.k_tail - phi.k_min + 2 * FOURIER_RADIUS) * units)
            check_rows(units * (max(phi.k_tail - 1 + FOURIER_RADIUS, 0) + 1))
    elif verb == "verify fe-gl1":
        if args.n >= 3:
            raise UsageError(f"verify fe-gl1 needs --n <= 2: from n = 3 its float partial "
                             f"fractions lose the poles to rounding, got {args.n}")
    elif verb == "verify fe-pvs":
        if args.n >= 2:
            raise UsageError(f"verify fe-pvs needs --n <= 1 (Sym_1 or Sym_3), got {args.n}")
        if args.k < 2:
            raise UsageError(f"verify fe-pvs needs --k >= 2, got {args.k}")
        check_rows(2 * float(args.p) ** (args.k + 2))


def run_parsed(args) -> tuple[dict, int]:
    verb = " ".join(args.verb)
    try:
        if verb not in VERBS:
            raise UsageError(f"unknown verb {verb}")
        phi_in = _read_inputs(args)
        _validate(args, verb, phi_in)
        payload, checks = VERBS[verb](args, random.Random(args.seed), phi_in)
    except PadicharmError as exc:
        sys.stderr.write(str(exc) + "\n")
        return {"error": str(exc)}, 2
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": verb,
        "parameters": {
            "p": args.p, "n": args.n, "level": args.level, "k": args.k,
            "conductor": args.conductor, "tolerance": args.tolerance,
            "psi_sign": args.psi_sign, "seed": args.seed,
        },
        "checks": checks,
        "payload": payload,
    }
    failed = any(c["status"] != "pass" for c in checks)
    return report, 1 if failed else 0


def _parse_and_run(argv):
    """(args, report, exit_code); args is None when argv does not parse or
    asks for --help."""
    if "--help" in argv:
        return None, {"help": usage()}, 0
    try:
        args = parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(str(exc) + "\n")
        return None, {"error": str(exc)}, 2
    return (args, *run_parsed(args))


def run(argv) -> tuple[dict, int]:
    """Parse and execute; returns (report, exit_code)."""
    _, report, code = _parse_and_run(argv)
    return report, code


def main(argv=None) -> int:
    args, report, code = _parse_and_run(sys.argv[1:] if argv is None else argv)
    if args is None and code == 0:
        sys.stdout.write(report["help"])
        return code
    # args is None where argv did not parse; newline="" keeps the CSV's "\r\n"
    sink = (open(args.out, "w", encoding="utf-8", newline="") if args and args.out
            else contextlib.nullcontext(sys.stdout))
    with sink as out:
        try:
            emit(report, "json" if code == 2 else args.format, out)
        except UsageError as exc:
            sys.stderr.write(str(exc) + "\n")
            code = 2
            emit({"error": str(exc)}, "json", out)
    return code


if __name__ == "__main__":
    sys.exit(main())

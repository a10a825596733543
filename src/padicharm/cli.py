"""Command-line surface: compute factors, run verifiers, emit reports.

Verbs: gamma, beta, eta-table, verify fe-gl1, verify fe-pvs, count-fibers,
symplectic-check, tate-oracle, fourier-n0, shells, phi-eval.  Each verb
returns its payload and its checks, records of two routes and one of the
four compares below, which `run_check` runs.  Reports are JSON (canonical)
or CSV (count tables); exit code 0 iff every check passed, 1 on check
failure, 2 on usage errors, invalid parameters and domain errors raised
outside a check (reported as JSON with an "error" field).  Flags are read
from the one table FLAGS, as --name value or --name=value.  A config file,
when given, overrides the flags it names (padic.CONFIG_KEYS); flags override
defaults.  Reports are byte-identical for a fixed --seed (runtimes are only
emitted under --timing).
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


class Check:
    """A check as a record: its name, two routes (callables that return the
    compared values: numbers at the samples, a matrix or an int), the compare
    that reads the deviation of the first route's value from the second's,
    and the tolerance that the deviation may not pass."""

    def __init__(self, name, first, second, compare, tolerance):
        self.name, self.first, self.second = name, first, second
        self.compare, self.tolerance = compare, tolerance


def run_check(check, timing):
    """The report entry of a check: pass or fail as its deviation is within
    its tolerance or not, and error where a route raises or the deviation is
    not finite, which no tolerance passes and JSON has no number for."""
    t0 = time.perf_counter()
    try:
        dev = check.compare(check.first(), check.second())
        if not math.isfinite(dev):
            raise ArithmeticError(f"non-finite deviation {dev}")
        out = {"name": check.name, "status": "pass" if dev <= check.tolerance else "fail",
               "max_deviation": float(dev)}
    except Exception as exc:   # noqa: BLE001 - reported, not swallowed
        out = {"name": check.name, "status": "error", "error": str(exc),
               "max_deviation": None}
    if timing:
        out["runtime_ms"] = round(1000 * (time.perf_counter() - t0), 3)
    return out


# ---------------------------------------------------------------- compares
# The one place a deviation is computed: the largest, over the paired values
# a and b of a check's two routes, of |a - b| / scale(a, b), and inf where
# one is not finite; or, for exact values, whether they are equal.

def _compare(scale):
    def compare(first, second):
        worst = 0.0
        for a, b in zip(first, second, strict=True):
            dev = abs(a - b) / scale(a, b)
            if not math.isfinite(dev):
                return math.inf
            worst = max(worst, dev)
        return worst
    return compare


relative = _compare(lambda a, b: max(abs(a), abs(b), 1.0))    # two sides of an equation
relative_to_second = _compare(lambda a, b: max(1.0, abs(b)))   # a sum against its closed form
absolute = _compare(lambda a, b: 1)                            # values of a known size


def exact(first, second):
    return 0.0 if first == second else 1.0


# ------------------------------------------------------------------- verbs
# Each verb takes the parsed flags, a Random(--seed) and the --fx-in
# function (or None), and returns its payload and its checks, which run
# after it returns; a route may fill the payload it belongs to.

def _chi_json(chi, conductor_wanted):
    from .padic import unit_group
    gen = unit_group(chi.p, chi.level)[1]
    gi = chi.value(gen)
    return {"p": chi.p, "level": chi.level, "exponent": chi.exponent,
            "generator_image": [gi.real, gi.imag], "conductor": conductor_wanted}


def cmd_gamma(args, rng, phi):
    from .abelian import gamma_factor
    chi = _character(args.p, args.level, args.conductor)
    g = gamma_factor(chi, args.psi_sign)
    return {"factor": "gamma", "chi": _chi_json(chi, args.conductor),
            "result": g.to_json()}, []


def cmd_beta(args, rng, phi):
    from .abelian import beta_factor
    chi = _character(args.p, args.level, args.conductor)
    b = beta_factor(args.n, chi, args.psi_sign)
    return {"factor": "beta", "n": args.n, "chi": _chi_json(chi, args.conductor),
            "result": b.to_json()}, []


def cmd_eta_table(args, rng, phi):
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


def _verify_fe(args, verb, functions, build_sides, side, level):
    """One check per test function and character chi mod p^level, named
    verb[name,chi^j], whose routes are the two sides at chi; the first route
    to read a function's sides builds them, so --timing charges its check."""
    from .abelian import characters
    checks = []
    for name, f in functions:
        sides = []

        def at(i, chi, f=f, sides=sides):
            if not sides:
                sides.append(build_sides(f))
            return side(sides[0], i, args.n, chi, args.psi_sign)
        checks += [Check(f"{verb}[{name},chi^{chi.exponent}]", lambda chi=chi, at=at: at(0, chi),
                         lambda chi=chi, at=at: at(1, chi), relative, args.tolerance)
                   for chi in characters(args.p, level)]
    return checks


def cmd_verify_fe_gl1(args, rng, phi):
    from .fxspace import FxFunction, TailSpec, fe_gl1_side, fe_gl1_sides
    from .padic import unit_group
    cosets = unit_group(args.p, args.level)[0]
    functions = []    # drawn before any check runs; no check reads the rng
    for idx in range(3):
        vals = {(k, u): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for k in range(-1, 2) for u in cosets}
        f = FxFunction(args.p, args.level, -1, 2, vals, TailSpec.compact())
        functions.append((f"f{idx}", f))
    checks = _verify_fe(args, "fe-gl1", functions,
                        lambda f: fe_gl1_sides(f, args.n, args.psi_sign), fe_gl1_side,
                        args.level)
    return {"verified": "fe-gl1", "n": args.n}, checks


def cmd_verify_fe_pvs(args, rng, phi):
    from .pvszeta import LatticeTestFunction, fe_pvs_side, fe_pvs_sides
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
                        fe_pvs_side, 1)
    return {"verified": "fe-pvs", "n": args.n, "k": args.k}, checks


def cmd_count_fibers(args, rng, phi):
    from .pvszeta import det_fiber_counts
    table = det_fiber_counts(args.m, args.p, args.k)
    rows = [{"ord_class": v, "unit_coset": u, "count": c}
            for v, u, c in table.rows()]
    return {"fiber_counts": rows, "zero_count": table.zero_count,
            "total": table.total, "m": args.m, "p": args.p, "k": args.k}, []


def cmd_symplectic_check(args, rng, phi):
    """Exact identities on 30 symplectic h, then 20 X off the Cayley poles."""
    from . import symplectic as sp
    n, m = args.n, 2 * args.n
    hs = [sp.random_symplectic(n, rng) for _ in range(30)]
    drawn = []
    while len(drawn) < 20:
        X = sp.random_symmetric(n, rng)
        with contextlib.suppress(sp.CayleyPoleError):
            drawn.append((X, sp.cayley(X, n)))
    g = sp.standard_elements(n)    # its build tests the form identities

    def blocks(X):
        # p_std = [[A, B], [C, D]] with 2 A = h^t - I, C = 0 and D = 2 (h - I)^{-1}
        p_std = sp.siegel_factorize(X, n)[0]
        return (sp.scale([r[:m] for r in p_std[:m]], 2), [r[:m] for r in p_std[m:]],
                [r[m:] for r in p_std[m:]])

    def parabolic(h):
        I = sp.eye(m)
        return sp.sub(sp.transpose(h), I), sp.zeros(m), sp.scale(sp.inverse(sp.sub(h, I)), 2)

    def formula():
        order, c0 = sp.sp_order(n, args.p)
        return (order, c0) if n == 1 else (c0,)

    def count():
        # c0 as a product, and at n = 1 the order as the direct count of SL_2(F_p)
        c0 = sp.c0_constant(n, args.p)
        return (sp.sl2_order(args.p), c0) if n == 1 else (c0,)
    checks = [
        # g0 g0^{-1} = I and g0^{-1} w_std g0 = w_Delta
        Check("standard-elements", lambda: [sp.mul(g["g0"], g["g0_inv"]), sp.mat(g["w_delta"])],
              lambda: [sp.eye(2 * m), sp.mul(sp.mul(g["g0_inv"], g["w_std"]), g["g0"])],
              exact, 0.0),
        Check("cayley-roundtrip", lambda: [sp.cayley(sp.cayley_inv(h, n), n) for h in hs],
              lambda: hs, exact, 0.0),
        Check("siegel-factorization", lambda: [blocks(X) for X, _ in drawn],
              lambda: [parabolic(h) for _, h in drawn], exact, 0.0),
        Check("group-order-c0", formula, count, exact, 0.0),
    ]
    return {"verified": "symplectic", "n": n}, checks


def cmd_tate_oracle(args, rng, phi):
    from .abelian import characters, conductor, gamma_factor, tate_gamma_oracle
    s_values = (0.3, 0.5, 0.7)
    zs = [complex(args.p) ** (-s) for s in s_values]
    checks = [Check(f"tate-oracle[chi^{chi.exponent}]",
                    lambda chi=chi: [tate_gamma_oracle(chi, s, args.psi_sign) for s in s_values],
                    lambda chi=chi: list(map(gamma_factor(chi, args.psi_sign), zs)),
                    relative_to_second, args.tolerance)
              for chi in characters(args.p, args.level) if conductor(chi) <= args.conductor]
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
    points = [(k, u) for k in range(0, 2) for u in cosets]
    table = {}
    payload = {"verified": "fourier-n0", "input": phi.to_json(), "transform": []}

    def transform():
        if not table:
            table.update(fourier_n0_table(phi, -FOURIER_RADIUS, FOURIER_RADIUS,
                                          sign=args.psi_sign))
            payload["transform"] = [{"k": k, "coset": u, "re": v.real, "im": v.imag}
                                    for (k, u), v in sorted(table.items()) if abs(v) > 1e-12]
        return table

    def inversion():
        ks = [k for k, _ in transform()]
        G = FxFunction(args.p, args.level, min(ks), max(ks) + 1,
                       {ku: complex(v) for ku, v in table.items()},
                       TailSpec.compact())
        return fourier_n0(G, points, sign=-args.psi_sign)
    # two routes: the table is a character-space product, its inverse the pv kernel sums
    return payload, [
        Check("double-transform", inversion, lambda: [phi.evaluate(k, u) for k, u in points],
              absolute, 1e-6),
        Check("plancherel-truncated",
              lambda: [l2_norm_truncated(transform(), args.p, args.level, FOURIER_RADIUS)],
              lambda: [l2_norm_fx(phi, FOURIER_RADIUS)], absolute, 1e-4)]


def cmd_shells(args, rng, phi):
    from .gdist import shell_coefficients_sum, shells_target
    chi = _character(args.p, args.level, args.conductor)
    payload = {"chi": {"p": args.p, "exponent": chi.exponent, "conductor": args.conductor},
               "s": args.s}

    def partial_sum():
        rep = shell_coefficients_sum(chi, args.s, sign=args.psi_sign)
        payload["coefficients"] = [{"ell": ell, "re": c.real, "im": c.imag}
                                   for ell, c in sorted(rep["coefficients"].items())]
        payload["sum"] = [rep["sum"].real, rep["sum"].imag]
        return [rep["sum"]]

    def target():
        value = shells_target(chi, args.s, sign=args.psi_sign)
        payload["target"] = [value.real, value.imag]
        return [value]
    return payload, [Check("shells-vs-gamma", partial_sum, target, relative_to_second,
                           SHELLS_TOL)]


def cmd_phi_eval(args, rng, phi):
    from . import symplectic as sp
    from .gdist import GPoint, phi_rho_eval
    from .padic import PadicElement
    a = PadicElement(p=args.p, valuation=args.ord, unit=args.unit, level=args.level)
    if args.n == 0:
        v = phi_rho_eval(GPoint(a, ()), args.level, args.psi_sign)
        return {"phi": [v.real, v.imag], "n": 0}, []
    h = sp.random_symplectic(args.n, rng)
    v = phi_rho_eval(GPoint(a, tuple(map(tuple, h))), args.level, args.psi_sign)
    checks = [Check("phi(h)=phi(h^-1)",
                    lambda: [phi_rho_eval(GPoint(a, tuple(map(tuple, sp.inverse(h)))), args.level,
                                          args.psi_sign)],
                    lambda: [v], absolute, 1e-9)]
    return {"phi": [v.real, v.imag], "n": args.n,
            "h": [[str(x) for x in row] for row in h]}, checks


VERBS = {
    "gamma": cmd_gamma,
    "beta": cmd_beta,
    "eta-table": cmd_eta_table,
    "verify fe-gl1": cmd_verify_fe_gl1,
    "verify fe-pvs": cmd_verify_fe_pvs,
    "count-fibers": cmd_count_fibers,
    "symplectic-check": cmd_symplectic_check,
    "tate-oracle": cmd_tate_oracle,
    "fourier-n0": cmd_fourier_n0,
    "shells": cmd_shells,
    "phi-eval": cmd_phi_eval,
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


def _beta_exponent(n, p, e):
    """The largest power of p among the float coefficients of beta_psi(chi_s)
    at a character of conductor e, as the factors' shifts scale them: each
    gamma factor's top coefficient, times |G| = p^(e/2) at a ramified one.
    beta, eta-table and phi-eval print NaN at the first n where it passes
    float64, at p = 3 to 999983 and every conductor up to level 6."""
    if e == 0:
        return 2 * n * n - 1
    return 2 * n * n - n if e == 1 and p == 3 else e * (n * n + n / 2)   # chi^2 trivial or not


def _validate(args, verb, phi):
    """The one input boundary: n >= 0, level, k, m >= 1, p an odd prime
    (tested once the units are within budget, as trial division is slow past
    it), a finite tolerance >= 0, --fx-in shells on unit cosets
    1 <= u < p^level inside k_min <= k < k_tail (checked once p and level are
    bounded), and the rows a verb builds within ROW_BUDGET: the phi(p^level)
    units; phi-eval's (|ord| + 1) eta terms per unit; an eta table's
    (kmax - kmin + 1) rows and (kmax + 1) terms per unit; a count table's p^k
    rows; fe-pvs's 2 p^(k+2), which keeps p <= 13 at k >= 3, below the p = 41
    where the k = 3 series cross-check of the shifted function fails, and
    p <= 23 at k = 2, below the p = 59 where the exact series' float partial
    fractions stop cancelling; tate-oracle's units per character of
    conductor <= c; and fourier-n0's units^2 (p = 997 at level 1 takes
    2.5 s) and, for an --fx-in, its eta rows and series widened by its window.
    verify fe-pvs also needs n <= 1 and k >= 2, the depth of its series
    cross-check; verify fe-gl1 needs n <= 2: from n = 3 the float partial
    fractions of the Fourier operator's Mellin components lose the poles to
    rounding.  beta, eta-table and phi-eval need beta's float coefficients
    within float64 (`_beta_exponent`): beta at its character, the other two
    at every character of the level, whose eta series they build.  shells
    needs s > -1/2, where its sums converge, and at conductor 0 twice the
    first shell past ELL_MAX, q^-((ELL_MAX + 1)(s + 1/2)), within SHELLS_TOL:
    s > -0.31786 at p = 3.  symplectic-check needs 1 <= n <= 4, as Sp_0 is
    trivial and its exact elimination slows with n (0.4 s at n = 4, 8 s at
    n = 8), and, at n = 1, p^4 <= ROW_BUDGET (p <= 31) for its count of
    SL_2(F_p).  fourier-n0 needs a compactly supported --fx-in: only then
    are its kernel sums finite."""
    from .padic import LocalFieldConfig
    from .pvszeta import ROW_BUDGET, check_rows
    for name, low in (("n", 0), ("level", 1), ("k", 1), ("m", 1)):
        if getattr(args, name) < low:
            raise UsageError(f"--{name} must be >= {low}, got {getattr(args, name)}")
    # past the power p^20 every table is over budget at every p, so powers stop
    # there; the budget comes before the primality test, which is slow for large p
    units = (args.p - 1) * float(args.p) ** min(args.level - 1, 20)
    check_rows(units)
    LocalFieldConfig(args.p)
    if verb in ("beta", "eta-table", "phi-eval"):
        conductors = [min(args.conductor, args.level)] if verb == "beta" else range(args.level + 1)
        exponent = max(_beta_exponent(args.n, args.p, e) for e in conductors)
        if exponent * math.log10(args.p) > math.log10(sys.float_info.max):
            raise UsageError(f"{verb} at --n {args.n} and --p {args.p}: beta's float "
                             f"coefficients reach p^{exponent:g}, past float64, until "
                             f"pole arithmetic is exact")
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
        check_rows(float(args.p) ** min(args.k, 20))
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
        check_rows(2 * float(args.p) ** min(args.k + 2, 20))


def run_parsed(args) -> tuple[dict, int]:
    verb = " ".join(args.verb)
    try:
        if verb not in VERBS:
            raise UsageError(f"unknown verb {verb}")
        phi_in = _read_inputs(args)
        _validate(args, verb, phi_in)
        payload, checks = VERBS[verb](args, random.Random(args.seed), phi_in)
        checks = [run_check(check, args.timing) for check in checks]
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

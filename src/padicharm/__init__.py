"""padicharm: p-adic harmonic analysis on GL(1) and extended symplectic groups.

Submodules
----------
padic       finite-precision Q_p, valuation and unit part, the Legendre
            symbol, additive character, unit groups
ratfunc     rational functions of z = q^{-s}: residues, substitutions,
            partial fractions
abelian     unit characters and the abelian L/epsilon/gamma/beta factors,
            with a Tate-integral oracle
fxspace     shell-function model on F^x, Mellin transform and its inversion
            (fx_from_mellin, which is also the Paley-Wiener class test), the
            eta kernel, the Fourier operator on the plus space, and the
            functional-equation verifier
pvszeta     determinant-fiber counts over Sym_m(Z/p^k), lattice test
            functions and their Fourier transforms, zeta integrals, and the
            prehomogeneous functional-equation verifier
symplectic  exact rational doubling geometry: embeddings, Cayley transform,
            Siegel factorization, group orders
gdist       the kernel Phi on GL_1 x Sp_2n, the n = 0 Fourier operator,
            shell Fourier coefficients
cli         command-line verbs and machine-readable reports
"""

__version__ = "0.1.0"


class PadicharmError(ValueError):
    """Base class of the package's errors: bad parameters and failed domain
    computations (the CLI reports them as JSON with exit code 2)."""

"""Shared oracles for the test suite.

Everything here is deliberately naive: trial division, Euler's criterion,
power-sum evaluation, full-range root scans, the closed-form cubic
discriminant, a dict-only factorial walk, a set of factorial residues,
factorials built from 1, ring powers on plain coefficient lists, gap
products over every x.
The point is an arithmetic path independent of the package's production
code, so the two can disagree loudly when one is wrong.

The exception is the theorem checks at the end (factor parity and the
sextic substitution): they check the laws the filter stages stand on,
using the package's own root finder and symbol, and only tests call them.
"""

from dataclasses import dataclass
from typing import Sequence

from hypothesis import HealthCheck, settings

from socprimes.modarith import jacobi
from socprimes.polycong import poly_roots

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

#: x(x+1)(x+2) - 1 = x^3 + 3x^2 + 2x - 1, low to high; a root x would
#: give (x+2)! == (x-1)!.  Its discriminant is -23, the constant behind
#: filter stage 1's second symbol.  It is the hand-expanded reference
#: for gap 3: filters._gap_polynomial(3) must equal it.
THREE_TERM_CUBIC = (-1, 2, 3, 1)

#: y(y+4)(y+6) - 1 = y^3 + 10y^2 + 24y - 1 with y = x(x+5), low to high;
#: a root y lifts to an x with (x+5)! == (x-1)!.  Its discriminant is
#: 1957, the constant behind filter stage 2.  It is the hand-expanded
#: reference for gap 6: filters._gap_polynomial(6) and
#: filters.SIX_TERM_CUBIC must equal it.
SIX_TERM_CUBIC = (-1, 24, 10, 1)


def naive_primes(limit: int) -> list[int]:
    """Trial-division primes below limit."""
    out = []
    for n in range(2, limit):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def naive_fp(p: int) -> int:
    """F(p): the residues mod p missing from a set of 1!, 2!, ..., (p-1)!."""
    seen = set()
    f = 1
    for n in range(1, p):
        f = f * n % p
        seen.add(f)
    return p - len(seen)


def euler_symbol(a: int, p: int) -> int:
    """Legendre symbol via Euler's criterion; p must be an odd prime."""
    r = pow(a % p, (p - 1) // 2, p)
    return r - p if r > 1 else r


def eval_mod(coeffs: Sequence[int], y: int, p: int) -> int:
    """The polynomial with low-to-high coeffs at y, as a sum of c * y^i mod p."""
    return sum(c * pow(y, i, p) for i, c in enumerate(coeffs)) % p


def brute_roots(coeffs: Sequence[int], p: int) -> tuple[int, ...]:
    """Roots of the low-to-high coeffs mod p by evaluating everywhere."""
    return tuple(y for y in range(p) if eval_mod(coeffs, y, p) == 0)


def cubic_discriminant(coeffs: Sequence[int]) -> int:
    """Discriminant of y^3 + b y^2 + c y + d, given as (d, c, b, 1), exactly."""
    d, c, b, _one = coeffs
    return 18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2


def reference_scan(p: int) -> tuple:
    """Dict-backed factorial walk, plus a midpoint rule the package lacks.

    Returns ("Collision", j, k, residue), ("NegHalfHit", k, residue) or
    ("Socialist",).  The negative-half comparison runs only for
    p == 1 (mod 4), past the midpoint, and after the duplicate check at
    the same k.  It never fires (the verifier docstring proves why), so
    the package's scans, which have no such rule, must agree with this
    walk verdict for verdict.
    """
    half = (p - 1) // 2
    check_neg = p % 4 == 1
    seen: dict[int, int] = {}
    f = 1
    neg_h = None
    for k in range(2, p):
        f = f * k % p
        if f in seen:
            return ("Collision", seen[f], k, f)
        if check_neg:
            if k == half:
                neg_h = p - f
            elif k > half and f == neg_h:
                return ("NegHalfHit", k, f)
        seen[f] = k
    return ("Socialist",)


def gap_collisions(g: int, p: int) -> list[int]:
    """Every x in [3, p-g] with x(x+1)...(x+g-1) == 1 (mod p), by direct product.

    Each x is a collision (x-1)! == (x+g-1)! inside 2! .. (p-1)!, so this
    is the per-gap oracle for filters._gap_witness, over all x.
    """
    out = []
    for x in range(3, p - g + 1):
        prod = 1
        for i in range(x, x + g):
            prod = prod * i % p
        if prod == 1:
            out.append(x)
    return out


def factorials_agree(p: int, j: int, k: int) -> bool:
    """j! == k! (mod p), each factorial built from 1 by its own chain.

    This is what a Collision witness claims; recheck_witness, which
    multiplies only the gap (j+1)...k, must agree with it for prime p.
    """
    fj = fk = 1
    for i in range(2, j + 1):
        fj = fj * i % p
    for i in range(2, k + 1):
        fk = fk * i % p
    return fj == fk


def assert_partition(fc) -> None:
    """A FilterCounts tallies each prime once and lists exactly its stage survivors."""
    assert fc.examined == (fc.rejected_mod8 + fc.rejected_legendre5 + fc.rejected_legendre23
                           + fc.rejected_cubic + fc.candidates)
    assert len(fc.stage1_survivors) == fc.rejected_cubic + fc.candidates
    assert len(fc.stage2_survivors) == fc.candidates
    assert set(fc.stage2_survivors) <= set(fc.stage1_survivors)


def naive_linear_pow(s: int, e: int, g: Sequence[int], p: int) -> list[int]:
    """(y + s)^e in Z/p[y]/(g) for monic g, on coefficient lists.

    The schoolbook form of polycong._linear_pow, which packs the same
    ring elements into big-int slots: a full double-loop square, a row by
    row reduction against y^n = -(g_0 + ... + g_(n-1) y^(n-1)), and
    multiplication by y + s as a shift plus one row.
    """
    n = len(g) - 1
    row = [-c % p for c in g[:n]]  # y^n == sum row[j] y^j
    r = [1] + [0] * (n - 1)
    for bit in bin(e)[2:]:
        sq = [0] * (2 * n - 1)
        for i, a in enumerate(r):
            if a:
                for j, b in enumerate(r):
                    sq[i + j] += a * b
        for k in range(2 * n - 2, n - 1, -1):
            c = sq[k] % p
            if c:
                for j in range(n):
                    sq[k - n + j] += c * row[j]
        r = sq[:n]
        if bit == "1":
            top = r[-1] % p
            r = [s * r[0] + top * row[0]] + [r[j - 1] + s * r[j] + top * row[j] for j in range(1, n)]
        r = [c % p for c in r]
    return r


def verdict_tuple(v) -> tuple:
    """Flatten a package Verdict into the reference_scan tuple shape."""
    kind = v.kind.value
    if kind == "Collision":
        return ("Collision", v.j, v.k, v.residue)
    if kind == "NegHalfHit":
        return ("NegHalfHit", v.k, v.residue)
    return (kind,)


@dataclass(frozen=True)
class FactorParity:
    """Factorisation shape of one squarefree polynomial mod p.

    ``nu`` is the number of irreducible factors and ``symbol`` the Jacobi
    symbol of the discriminant.  Stickelberger's parity law says
    ``symbol == (-1) ** (degree - nu)`` whenever p does not divide the
    discriminant; ``holds`` reports exactly that comparison.
    """

    degree: int
    nu: int
    discriminant: int
    symbol: int

    @property
    def holds(self) -> bool:
        return self.symbol == (-1) ** (self.degree - self.nu)


def factor_parity(coeffs: Sequence[int], p: int) -> FactorParity:
    """Count irreducible factors of a monic squarefree polynomial mod p.

    ``coeffs`` is low-to-high and must end with 1; degree 1 to 3 is
    supported.  Raises ``ValueError`` when p divides the discriminant,
    since the factor count below relies on the reduction staying
    squarefree.
    """
    if len(coeffs) < 2 or len(coeffs) > 4 or coeffs[-1] != 1:
        raise ValueError("need a monic polynomial of degree 1 to 3")
    degree = len(coeffs) - 1
    if degree == 1:
        disc = 1
    elif degree == 2:
        disc = coeffs[1] ** 2 - 4 * coeffs[0]
    else:
        disc = cubic_discriminant(coeffs)
    if disc % p == 0:
        raise ValueError(f"{p} divides the discriminant {disc}")

    if degree == 1:
        nu = 1
    elif degree == 2:
        nu = 2 if jacobi(disc, p) == 1 else 1
    else:
        k = len(poly_roots(coeffs, p))
        # squarefree cubic: 3 roots, 1 root, or none; 2 would need a
        # repeated factor
        nu = {3: 3, 1: 2, 0: 1}[k]
    return FactorParity(degree=degree, nu=nu, discriminant=disc, symbol=jacobi(disc, p))


def sextic_substitution_check(x: int, p: int) -> bool:
    """Verify x(x+1)...(x+5) == y(y+4)(y+6) mod p for y = x(x+5).

    This is an identity, so the return value is True for every x and p;
    it exists as a checkable artifact because the whole second filter
    stage stands on it.
    """
    lhs = 1
    for k in range(6):
        lhs = lhs * (x + k) % p
    y = x * (x + 5) % p
    rhs = y * (y + 4) % p * (y + 6) % p
    return lhs == rhs

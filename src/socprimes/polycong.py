"""Root finding for small monic polynomials mod p.

Polynomials are coefficient sequences in low-to-high order, so
``(d, c, b, 1)`` is ``y^3 + b*y^2 + c*y + d``.  Everything here targets
degree at most 3, which keeps quotient-ring arithmetic tiny while still
covering the cubics the filter pipeline cares about.

Root counts mod p are what the pipeline consumes, and they are recovered
without factoring machinery beyond gcd with the Frobenius image:
``gcd(f, y^p - y)`` is the product of the distinct linear factors of f.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .modarith import inv_mod, sqrt_mod

__all__ = [
    "MonicCubic",
    "CubicRootSet",
    "cubic_discriminant",
    "cubic_roots",
]


@dataclass(frozen=True)
class MonicCubic:
    """y^3 + b*y^2 + c*y + d with integer coefficients."""

    b: int
    c: int
    d: int

    def eval_mod(self, y: int, p: int) -> int:
        return (((y + self.b) * y + self.c) * y + self.d) % p

    def coeffs(self) -> tuple[int, int, int, int]:
        """Low-to-high coefficient tuple (d, c, b, 1)."""
        return (self.d, self.c, self.b, 1)


@dataclass(frozen=True)
class CubicRootSet:
    """All roots of one cubic modulo p, sorted ascending."""

    p: int
    roots: tuple[int, ...]

    def __post_init__(self) -> None:
        if list(self.roots) != sorted(set(self.roots)):
            raise ValueError("roots must be strictly increasing")
        if any(not 0 <= r < self.p for r in self.roots):
            raise ValueError("roots must be reduced mod p")


def cubic_discriminant(f: MonicCubic) -> int:
    """Discriminant of y^3 + b y^2 + c y + d as an exact integer."""
    b, c, d = f.b, f.c, f.d
    return 18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2


# ----------------------------------------------------------------------
# dense polynomial helpers over Z/p, coefficients low to high


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    # b nonzero with invertible leading coefficient
    rem = [x % p for x in a]
    db = len(b) - 1
    inv_lead = inv_mod(b[-1], p)
    quo = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        coef = rem[i]
        if coef:
            coef = coef * inv_lead % p
            quo[i - db] = coef
            for j in range(db + 1):
                rem[i - db + j] = (rem[i - db + j] - coef * b[j]) % p
    return _trim(quo), _trim(rem[:db])


def _poly_gcd_monic(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a = _trim([x % p for x in a])
    b = _trim([x % p for x in b])
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if a:
        inv_lead = inv_mod(a[-1], p)
        a = [x * inv_lead % p for x in a]
    return a


def _qring_mul(u: list[int], v: list[int], f: Sequence[int], p: int) -> list[int]:
    # product of two elements of Z/p[y]/(f) with f monic
    n = len(f) - 1
    prod = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                prod[i + j] = (prod[i + j] + ui * vj) % p
    for i in range(len(prod) - 1, n - 1, -1):
        coef = prod[i]
        if coef:
            prod[i] = 0
            for j in range(n):
                prod[i - n + j] = (prod[i - n + j] - coef * f[j]) % p
    del prod[n:]
    while len(prod) < n:
        prod.append(0)
    return prod


def _qring_pow(base: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    n = len(f) - 1
    result = [0] * n
    result[0] = 1
    acc = list(base) + [0] * (n - len(base))
    while e:
        if e & 1:
            result = _qring_mul(result, acc, f, p)
        acc = _qring_mul(acc, acc, f, p)
        e >>= 1
    return result


def _quadratic_roots(g: Sequence[int], p: int) -> list[int]:
    # g = y^2 + B y + C, known to split into distinct linear factors
    c0, b1 = g[0], g[1]
    disc = (b1 * b1 - 4 * c0) % p
    s = sqrt_mod(disc, p)
    assert s is not None, "split certificate violated"
    inv2 = inv_mod(2, p)
    return [(-b1 + s) * inv2 % p, (-b1 - s) * inv2 % p]


def _split_linear_product(g: list[int], p: int, rng: random.Random) -> list[int]:
    # g monic and a product of distinct linear factors
    deg = len(g) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [-g[0] % p]
    if deg == 2:
        return _quadratic_roots(g, p)
    # deg == 3: probe random shifts until the quadratic character of
    # y + s separates at least one pair of roots
    half = (p - 1) >> 1
    while True:
        s = rng.randrange(p)
        w = _qring_pow([s, 1], half, g, p)
        w[0] = (w[0] - 1) % p
        h = _poly_gcd_monic(g, w, p)
        if 0 < len(h) - 1 < deg:
            quo = _poly_divmod(g, h, p)[0]
            return _split_linear_product(h, p, rng) + _split_linear_product(quo, p, rng)


def cubic_roots(f: MonicCubic, p: int) -> CubicRootSet:
    """All roots of f modulo the odd prime p, as a sorted tuple.

    The generic path computes gcd(f, y^p - y) through one Frobenius power
    in the quotient ring, then splits by degree: degree 1 reads the root
    off, degree 2 uses the quadratic formula, degree 3 runs equal-degree
    splitting with a shift sequence seeded by p so results are
    reproducible.  When p divides the discriminant the gcd trick still
    terminates but the squarefree reasoning behind the degree dispatch
    does not apply, so those p fall back to direct evaluation at every
    residue.
    """
    if p < 3 or p & 1 == 0:
        raise ValueError("modulus must be an odd prime")
    coeffs = [x % p for x in f.coeffs()]
    if cubic_discriminant(f) % p == 0:
        roots = [y for y in range(p) if f.eval_mod(y, p) == 0]
        return CubicRootSet(p, tuple(roots))

    yp = _qring_pow([0, 1], p, coeffs, p)
    yp[1] = (yp[1] - 1) % p
    g = _poly_gcd_monic(coeffs, yp, p)
    roots = _split_linear_product(g, p, random.Random(p))
    for r in roots:
        if f.eval_mod(r, p):
            raise ArithmeticError(f"root extraction produced a non-root mod {p}")
    return CubicRootSet(p, tuple(sorted(roots)))

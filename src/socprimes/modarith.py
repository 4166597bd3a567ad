"""Quadratic characters and square roots modulo odd primes.

Residues are plain Python ints normalised into ``[0, m)``; the modulus is
passed explicitly to every operation and never stored alongside a value.
Quadratic character computations use the Jacobi symbol throughout, evaluated
by binary quadratic reciprocity.  Square roots are closed forms, one ``pow``
each, for primes p == 3 (mod 4) and p == 5 (mod 8): stage 2 takes roots
only modulo stage-1 survivors, which are 5 (mod 8), and its two
discriminant primes 19 and 103 are 3 (mod 4).  Roots are returned as a
canonical representative so that callers building witnesses from them are
deterministic.  Inverses are the builtin ``pow(a, -1, p)``.
"""

from __future__ import annotations

__all__ = ["jacobi", "sqrt_mod"]


def jacobi(a: int, n: int) -> int:
    """Return the Jacobi symbol ``(a/n)`` for odd ``n >= 3``.

    Computed by binary quadratic reciprocity: powers of two are peeled off
    the numerator, with a sign flip when ``n % 8`` is 3 or 5, and the pair
    is swapped with a sign flip when both sides are 3 mod 4.  The result is
    -1, 0 or +1; 0 occurs exactly when ``gcd(a, n) > 1``.  When ``n`` is an
    odd prime this is the Legendre symbol, so ``+1`` means ``a`` is a
    nonzero quadratic residue and ``-1`` a nonresidue.  Negative ``a`` is
    reduced modulo ``n`` first, which matches the Legendre convention
    because the symbol only depends on ``a mod n``.
    """
    if n < 3 or n & 1 == 0:
        raise ValueError("jacobi symbol needs an odd modulus >= 3")
    a %= n
    result = 1
    while a:
        while a & 1 == 0:
            a >>= 1
            r = n & 7
            if r == 3 or r == 5:
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int | None:
    """Return the canonical square root of ``a`` modulo the odd prime ``p``.

    Returns ``None`` when ``a`` is a quadratic nonresidue.  Otherwise the
    two roots are ``s`` and ``p - s``; the smaller one, in ``[0, (p-1)/2]``,
    is returned so that downstream witness construction is deterministic.

    Two closed forms, one ``pow`` each, cover the moduli this package
    feeds it: ``a^((p+1)/4)`` for ``p == 3 (mod 4)``, and Atkin's
    ``a*v*(2a*v^2 - 1)`` with ``v = (2a)^((p-5)/8)`` for ``p == 5 (mod 8)``
    (there 2 is a nonresidue, so ``2a*v^2`` is a square root of -1).  A
    candidate that squares back to ``a`` is the root; otherwise ``a`` must
    have Jacobi symbol -1, or ``p`` is not prime and ``ValueError`` is
    raised.  ``p == 1 (mod 8)`` has no such form and is refused with
    ``ValueError``: nothing here asks for it.
    """
    if p < 3 or p % 8 not in (3, 5, 7):
        raise ValueError(f"sqrt_mod has no closed form for the modulus {p} "
                         f"({p % 8} mod 8); it takes p = 3 (mod 4) or 5 (mod 8)")
    if p % 4 == 3:
        root = pow(a, (p + 1) >> 2, p)
    else:
        v = pow(2 * a, (p - 5) >> 3, p)
        root = a * v * (2 * a * v * v - 1) % p
    a %= p
    if root * root % p == a:
        return min(root, p - root)
    if jacobi(a, p) == -1:
        return None
    raise ValueError(f"sqrt_mod needs a prime modulus; {p} is not prime")

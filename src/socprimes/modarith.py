"""Quadratic characters and square roots modulo odd primes.

Residues are plain Python ints normalised into ``[0, m)``; the modulus is
passed explicitly to every operation and never stored alongside a value.
Quadratic character computations use the Jacobi symbol throughout, evaluated
by binary quadratic reciprocity.  Square roots use Tonelli-Shanks and return
a canonical representative so that callers building witnesses from roots are
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

    Uses Tonelli-Shanks.  The first quadratic nonresidue found by scanning
    ``2, 3, 5, ...`` seeds the loop; for the ``p % 8 == 5`` moduli this
    package feeds it, 2 is always a nonresidue and the scan stops at once.
    A composite ``p`` that leaves it without a nonresidue, an exponent or
    a root that squares back to ``a`` raises ``ValueError``.
    """
    a %= p
    if a == 0:
        return 0
    if jacobi(a, p) != 1:
        return None
    not_prime = ValueError(f"sqrt_mod needs a prime modulus; {p} is not prime")

    # Write p - 1 = q * 2^s with q odd.
    q = p - 1
    s = 0
    while q & 1 == 0:
        q >>= 1
        s += 1

    if s == 1:
        # p % 4 == 3: direct exponentiation.
        root = pow(a, (p + 1) >> 2, p)
    else:
        z = next((z for z in range(2, p) if jacobi(z, p) == -1), None)
        if z is None:
            raise not_prime
        c = pow(z, q, p)
        root = pow(a, (q + 1) >> 1, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            # Find least i with t^(2^i) == 1; 0 < i < m for prime p.
            t2 = t
            for i in range(1, m):
                t2 = t2 * t2 % p
                if t2 == 1:
                    break
            else:
                raise not_prime
            b = pow(c, 1 << (m - i - 1), p)
            root = root * b % p
            c = b * b % p
            t = t * c % p
            m = i

    if root * root % p != a:
        raise not_prime
    return root if root <= (p - 1) >> 1 else p - root

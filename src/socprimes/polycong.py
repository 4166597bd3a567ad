"""Root finding for small monic polynomials mod p, of any degree.

Polynomials are coefficient sequences in low-to-high order, so
``(-1, 24, 10, 1)`` is ``y^3 + 10*y^2 + 24*y - 1``.

``poly_roots`` first takes ``g = gcd(f, y^p - y)``.  Since ``y^p - y`` is
the product of ``y - a`` over every residue a, g is the product of
``y - r`` over the distinct roots r of f, each once.  g is squarefree even
when f has a repeated root (when p divides the discriminant of f), so
that case needs no special handling.  g is then split by equal-degree
splitting (Cantor-Zassenhaus): ``gcd(g, (y+s)^((p-1)/2) - 1)`` collects
the roots r with r + s a nonzero square, for shifts s = 1, 2, ... until
one separates g.  For two distinct roots r, t the character sum of
(r+s)(t+s) over all s is -1, so some s <= p separates them; the shifts
are fixed, so results never depend on a random seed.

Both powers taken are powers of a linear element, ``y^p`` and
``(y+s)^((p-1)/2)``, so they are computed left to right: square, then
multiply by y + s.  The ring elements are packed one coefficient per
B-bit slot of a Python int (Kronecker substitution), so each square is a
single integer product ``R * R``.  With n = deg g and every coefficient in
[0, p), a square's 2n - 1 slots are each a sum of at most n products, so
they are < n*p^2.  Its n - 1 high slots, each reduced mod p, are folded
back against precomputed packed rows y^n ... y^(2n-2) mod g, which adds at
most (n-1)*p^2 to each low slot: < (2n-1)*p^2.  For a 1 bit, y + s (with
s reduced mod p) multiplies that as ``(R << B) + s*R``, so a slot is
< (2n-1)*p^3, and the top slot, reduced mod p, is folded against the
y^n row, adding < p^2 more.  B is the bit length of that last bound,
(2n-1)*(p-1)^2*p + (p-1)^2, so no slot ever carries into the next; then
each slot is reduced mod p once and the next step starts again from
coefficients in [0, p).  B grows with p's bit length and with n, so any
p works, with no fixed-width assumption.
"""

from __future__ import annotations

from collections.abc import Sequence

from .modarith import inv_mod

__all__ = ["poly_roots"]


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


def _pack(coeffs: Sequence[int], width: int) -> int:
    packed = 0
    for c in reversed(coeffs):
        packed = (packed << width) | c
    return packed


def _linear_pow(s: int, e: int, g: Sequence[int], p: int) -> list[int]:
    # (y + s)^e in Z/p[y]/(g) for monic g, as deg g coefficients
    n = len(g) - 1
    s %= p
    q = p - 1
    width = ((2 * n - 1) * q * q * p + q * q).bit_length()
    mask = (1 << width) - 1
    low = n * width
    low_mask = (1 << low) - 1
    shifts = range(0, low, width)
    row = [-c % p for c in g[:n]]  # y^n == sum row[j] y^j
    top_row = _pack(row, width)
    # (shift of high slot k, packed y^(n+k) mod g) for k = 0 .. n-2
    folds, r = [], row
    for shift in shifts[: n - 1]:
        folds.append((shift, _pack(r, width)))
        top = r[-1]
        r = [top * row[0] % p] + [(r[j - 1] + top * row[j]) % p for j in range(1, n)]
    high_first = shifts[::-1]
    packed = 1
    for bit in bin(e)[2:]:
        packed *= packed
        high = packed >> low
        packed &= low_mask
        for shift, row_k in folds:
            packed += (high >> shift & mask) % p * row_k
        if bit == "1":
            packed = (packed << width) + s * packed
            packed = (packed & low_mask) + (packed >> low) % p * top_row
        reduced = 0
        for shift in high_first:
            reduced = (reduced << width) | (packed >> shift & mask) % p
        packed = reduced
    return [packed >> shift & mask for shift in shifts]


def _split(g: list[int], p: int) -> list[int]:
    # g monic and a product of distinct linear factors, degree >= 1
    if len(g) == 2:
        return [-g[0] % p]
    half = (p - 1) >> 1
    for s in range(1, p + 1):
        w = _linear_pow(s, half, g, p)
        w[0] -= 1
        h = _poly_gcd_monic(g, w, p)
        if 1 < len(h) < len(g):
            return _split(h, p) + _split(_poly_divmod(g, h, p)[0], p)
    raise ArithmeticError(f"no shift splits a product of distinct linear factors mod {p}")


def poly_roots(f: Sequence[int], p: int) -> tuple[int, ...]:
    """The distinct roots of the monic f modulo the odd prime p, sorted.

    f is a low-to-high coefficient sequence of degree at least 1 whose
    last coefficient is 1.  Each root is checked by evaluating f before
    it is returned.
    """
    if p < 3 or p & 1 == 0:
        raise ValueError("modulus must be an odd prime")
    if len(f) < 2 or f[-1] != 1:
        raise ValueError("need a monic polynomial of degree at least 1")
    coeffs = [c % p for c in f]
    yp = _linear_pow(0, p, coeffs, p) + [0]  # room for the y term when deg f = 1
    yp[1] -= 1
    g = _poly_gcd_monic(coeffs, yp, p)
    roots = sorted(_split(g, p)) if len(g) > 1 else []
    for r in roots:
        v = 0
        for c in reversed(coeffs):
            v = (v * r + c) % p
        if v:
            raise ArithmeticError(f"root extraction produced a non-root mod {p}")
    return tuple(roots)

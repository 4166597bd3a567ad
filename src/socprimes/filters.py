"""Necessary conditions a socialist prime must satisfy, staged by cost.

A prime p > 5 with all of 2! .. (p-1)! distinct mod p cannot avoid any of
the conditions below, so each stage only ever discards safely:

* stage 0: p == 5 (mod 8).  Otherwise 2 is a quadratic residue or the
  half-factorial bookkeeping forces a repeat.
* stage 1: (5/p) == -1 and (-23/p) == +1.  The first would otherwise give
  x(x+1) == 1 two solutions and collide (x+1)! with (x-1)!; -23 is the
  discriminant of x(x+1)(x+2) - 1, whose split behaviour must keep that
  cubic rootless.  As 5 == -23 == 1 (mod 4), reciprocity makes them (p/5)
  and (p/23), so the stage reads p mod 5 and p mod 23, exactly for any odd p.
* stage 2, gap 6 of one gap routine: every root y of y^3 + 10y^2 + 24y - 1,
  gap 6's _gap_polynomial, must have (4y+25/p) == -1.  The cubic is
  x(x+1)...(x+5) - 1 compressed through y = x(x+5); _gap_witness lifts a
  root y whose 4y+25 is a square to an x with (x+5)! == (x-1)! mod p, an
  explicit collision.  When (1957/p) == +1 the stage passes without root
  work (1957 is this cubic's discriminant, and the only dangerous factor
  shape has exactly one root, forcing (1957/p) == -1).  As 1957 == 1
  (mod 4), (1957/p) == (p/1957) for every odd p, so the stage reads it
  from a table of the 1957 residues, built from jacobi on first use.
  _lone_root gives that root in F_p alone, for every p: it is (v-10)/3
  with v = u + 28/u, u a cube root of z = (187 + sqrt(-52839))/2, and v
  is a Lucas number V_a(187, 28^3), over 28 when p == 1 (mod 3).

Stages 0 and 1 depend on p mod 920 = 8 * 5 * 23 alone, so stage_mod8 and
stage_legendre are the per-prime definitions, and a table built from them
on every residue decides a whole segment by class: segment_outcomes
tallies stages 0 and 1 off the sieve's bytes (primes.segment_flags), one
strided count or compress per class, and builds ints only for the 22
classes mod 920 that pass both, which go on to stage_cubic.  run_pipeline
is the same decision for one prime.

A prime's outcome is the name of the counter it is tallied in, one of
OUTCOMES.  Stage 2 returns the rejecting root and the lifted x, and
run_pipeline passes them on as the {y, x} witness of a rejected_cubic
outcome so callers can hand the collision to independent rechecking.
"""

from __future__ import annotations

import functools
from itertools import chain, compress

from .modarith import jacobi, sqrt_mod
# kept under this name because perfbench/spans.py wraps filters.cubic_roots
from .polycong import poly_roots as cubic_roots
from .verifier import recheck_witness

__all__ = [
    "DOMAIN_START",
    "domain",
    "SIX_TERM_CUBIC",
    "OUTCOMES",
    "stage_mod8",
    "stage_legendre",
    "stage_cubic",
    "run_pipeline",
    "segment_outcomes",
]

#: Smallest prime any stage or search examines; the problem statement is p > 5.
DOMAIN_START = 7

#: y^3 + 10y^2 + 24y - 1 = y(y+4)(y+6) - 1, low to high, where y = x(x+5)
#: compresses x(x+1)...(x+5) - 1.  Its discriminant is 1957, the
#: constant behind stage 2's shortcut.
SIX_TERM_CUBIC = (-1, 24, 10, 1)

#: Every outcome run_pipeline reports, in stage order: a rejection by
#: stage 0, 1 (two symbols) or 2, then survival of all three.
OUTCOMES = ("rejected_mod8", "rejected_legendre5", "rejected_legendre23", "rejected_cubic", "candidates")

_SQUARES_MOD_23 = frozenset(i * i % 23 for i in range(1, 23))  # the p mod 23 with (-23/p) == +1


def domain(lo: int, hi: int) -> tuple[int, int]:
    """The part of [lo, hi) the problem covers: lo raised to DOMAIN_START, hi to at least lo."""
    lo = max(lo, DOMAIN_START)
    return lo, max(hi, lo)


def stage_mod8(p: int) -> bool:
    """True when p survives stage 0, that is p == 5 (mod 8)."""
    return p % 8 == 5


def stage_legendre(p: int) -> str | None:
    """Stage 1: None on survival, else the outcome naming the symbol that rejected p.

    (5/p) == -1 iff p mod 5 is 2 or 3, (-23/p) == +1 iff p mod 23 is a nonzero
    square.  The 5-test runs first, so a prime failing both is attributed to 5.
    """
    if p % 5 not in (2, 3):
        return "rejected_legendre5"
    if p % 23 not in _SQUARES_MOD_23:
        return "rejected_legendre23"
    return None


def stage_cubic(p: int, strict: bool = False) -> tuple[int, int] | None:
    """Stage 2: None on survival, else the rejecting root (y, x) pair.

    Stage 2 is gap 6: _gap_witness lifts the first liftable root y, in
    increasing order, to x, and y == x(x+5).  p must be 3 (mod 4) or
    5 (mod 8), as for sqrt_mod; every prime reaching stage 2 is 5 (mod 8).

    strict=True skips the (1957/p) == +1 shortcut and always enumerates
    the roots with poly_roots; it can only reject more, never fewer.  Else
    (1957/p) == -1 leaves one root, _lone_root's closed form.  The
    returned x lies in [3, p-6], so (x-1)! == (x+5)! is a collision inside
    2! .. (p-1)!, and recheck_witness confirms it before it is released.
    """
    symbol = 0 if strict else _symbols_1957()[p % 1957]  # strict finds roots as for p | 1957
    if symbol == 1:
        return None
    roots = (_lone_root(p),) if symbol == -1 else cubic_roots(SIX_TERM_CUBIC, p)
    x = _gap_witness(6, roots, p)
    return None if x is None else (x * (x + 5) % p, x)


@functools.cache
def _symbols_1957() -> tuple[int, ...]:
    """(r/1957) for r in [0, 1957), which is (1957/p) at r = p mod 1957 for every odd p.

    Built on first use, as 1957 jacobi calls cost about 2 ms; the 0 entries
    (r a multiple of 19 or 103) send 19 and 103 to cubic_roots.
    """
    return tuple(jacobi(r, 1957) for r in range(1957))


def _gap_polynomial(g: int) -> tuple[int, ...]:
    """Gap g's polynomial, low to high: its roots are the collisions (x-1)! == (x+g-1)!.

    Odd g gives f_g(x) = x(x+1)...(x+g-1) - 1.  Even g = 2m gives
    F_m(y) = prod_{i<m} (y + i(g-1-i)) - 1, which is f_g compressed through
    y = x(x+g-1), since (x+i)(x+g-1-i) = y + i(g-1-i).
    """
    poly = [1]
    for c in range(g) if g % 2 else [i * (g - 1 - i) for i in range(g // 2)]:
        poly = [c * a + b for a, b in zip(poly + [0], [0] + poly)]  # times (var + c)
    poly[0] -= 1
    return tuple(poly)


def _gap_witness(g: int, roots: tuple[int, ...], p: int) -> int | None:
    """x for the first of _gap_polynomial(g)'s roots giving (x-1)! == (x+g-1)!, 3 <= x <= p-g.

    An odd-g root is x.  An even-g root y lifts to x = (s-g+1)/2 with
    s = sqrt_mod((g-1)^2 + 4y, p), or to the mirror p-g+1-x when x is 1 or 2
    (g! or (g+1)! == 1, outside 2! .. (p-1)!).  The canonical s keeps x
    deterministic, and every x passes recheck_witness before it is returned.
    """
    for x in roots:
        if g % 2 == 0:
            s = sqrt_mod((g - 1) ** 2 + 4 * x, p)
            if s is None:
                continue
            x = (s - g + 1) % p * pow(2, -1, p) % p
            if x <= 2:
                x = p - g + 1 - x
        if 3 <= x <= p - g:
            if not recheck_witness(p, x - 1, x + g - 1):
                raise ArithmeticError(f"gap-{g} witness x={x} fails its recheck mod {p}")
            return x
    return None


def _lone_root(p: int) -> int:
    """The one root of SIX_TERM_CUBIC mod a prime p > 7 with (1957/p) == -1.

    y = (v-10)/3 gives v^3 - 84v - 187, whose root is u + 28/u for u^3 = z,
    z = (187 + sqrt(-52839))/2 of trace 187 and norm 28^3.  If p == 2 (mod 3),
    z lies in F_p and cubing is a bijection: u = z^a, a = (2p-1)/3.  Else z
    lies in F_{p^2}, 3 does not divide p+1, and u = z^a/28, a = (p+2)/3, has
    u^3 = z and norm 28.  Either way u + 28/u = V_a/d, d = 1 or 28, for the
    Lucas trace V_a = z^a + conj(z)^a, by the ladder on (V_k, V_{k+1}, Q^k).
    """
    d, a = (1, (2 * p - 1) // 3) if p % 3 == 2 else (28, (p + 2) // 3)
    v, w, q = 187, 187 * 187 - 2 * 21952, 21952  # V_1, V_2 and Q^1 for P = 187, Q = 28^3
    for bit in bin(a)[3:]:
        if bit == "1":
            v, w, q = (v * w - 187 * q) % p, (w * w - 2 * 21952 * q) % p, q * q * 21952 % p
        else:
            v, w, q = (v * v - 2 * q) % p, (v * w - 187 * q) % p, q * q % p
    return (v - 10 * d) * pow(3 * d, -1, p) % p


def run_pipeline(p: int, strict: bool = False) -> tuple[str, dict | None]:
    """Run the stages in cost order for one prime p > 5: its outcome and witness.

    The outcome is one of OUTCOMES.  The witness of rejected_cubic is
    {"y": y, "x": x}: the offending cubic root y and the lifted collision
    seed x with (x+5)! == (x-1)! mod p, equivalently x(x+1)...(x+5) == 1.
    Every other outcome has the witness None.
    """
    if not stage_mod8(p):
        return "rejected_mod8", None
    legendre = stage_legendre(p)
    if legendre is not None:
        return legendre, None
    hit = stage_cubic(p, strict)
    if hit is not None:
        return "rejected_cubic", {"y": hit[0], "x": hit[1]}
    return "candidates", None


#: Stages 0 and 1 as residue classes, from the per-prime definitions on
#: every residue: the classes mod 8 that pass stage 0, mod 40 that also pass
#: (5/p), and mod 920 that also pass (-23/p).  Each stage's test reads only
#: p mod 8, 5 and 23, so each row is exact for every prime.
_CLASS_ROWS = (
    (8, tuple(r for r in range(8) if stage_mod8(r))),
    (40, tuple(r for r in range(40) if stage_mod8(r) and stage_legendre(r) != "rejected_legendre5")),
    (920, tuple(r for r in range(920) if stage_mod8(r) and stage_legendre(r) is None)),
)


def segment_outcomes(seg_lo: int, seg_hi: int, flags: bytearray,
                     strict: bool = False) -> tuple[list[int], list[tuple[int, tuple[int, int] | None]]]:
    """run_pipeline over the primes of [seg_lo, seg_hi): per-OUTCOMES counts and the stage-1 survivors.

    flags[i] is 1 exactly when seg_lo + i is prime (primes.segment_flags).
    Stages 0 and 1 go by _CLASS_ROWS: each class's primes are counted by
    flags[o::m].count(1) at its offset o, and only the stage-1 classes mod
    920 become ints, merged in increasing order.  Each survivor comes with
    stage_cubic's verdict: its (y, x) on a cubic rejection, None for a
    candidate.  A prime failing both symbols counts against 5, as in
    stage_legendre.
    """
    passed = [flags.count(1)]  # primes reaching stage 0, then passing stage 0, (5/p), (-23/p) and stage 2
    passed += (sum(flags[(r - seg_lo) % modulus :: modulus].count(1) for r in classes)
               for modulus, classes in _CLASS_ROWS[:2])
    modulus, classes = _CLASS_ROWS[2]
    offsets = [(r - seg_lo) % modulus for r in classes]
    stage1 = sorted(chain.from_iterable(compress(range(seg_lo + o, seg_hi, modulus), flags[o::modulus])
                                        for o in offsets))
    survivors = [(p, stage_cubic(p, strict)) for p in stage1]
    passed += len(stage1), sum(hit is None for _, hit in survivors)
    return [a - b for a, b in zip(passed, passed[1:])] + passed[-1:], survivors

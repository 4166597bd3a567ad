"""Necessary conditions a socialist prime must satisfy, staged by cost.

A prime p > 5 with all of 2! .. (p-1)! distinct mod p cannot avoid any of
the conditions below, so each stage only ever discards safely:

* stage 0: p == 5 (mod 8).  Otherwise 2 is a quadratic residue or the
  half-factorial bookkeeping forces a repeat.
* stage 1: (5/p) == -1 and (-23/p) == +1.  The first would otherwise give
  x(x+1) == -1 two solutions and collide (x+1)! with (x-1)!; -23 is the
  discriminant of x(x+1)(x+2) - 1, whose split behaviour must keep that
  cubic rootless.
* stage 2: every root y of y^3 + 10y^2 + 24y - 1 must have
  (4y+25/p) == -1.  The cubic is x(x+1)...(x+5) - 1 compressed through
  y = x(x+5); a root y whose 4y+25 is a square lifts to an integer x with
  (x+5)! == (x-1)! mod p, an explicit collision.  When (1957/p) == +1 the
  stage passes without root work (1957 is this cubic's discriminant, and
  the only dangerous factor shape has exactly one root, forcing
  (1957/p) == -1).

A prime's outcome is the name of the counter it is tallied in, one of
OUTCOMES.  Stage 2 returns the rejecting root and the lifted x, and
run_pipeline passes them on as the {y, x} witness of a rejected_cubic
outcome so callers can hand the collision to independent rechecking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .modarith import jacobi, sqrt_mod
# kept under this name because perfbench/spans.py wraps filters.cubic_roots
from .polycong import poly_roots as cubic_roots
from .primes import PrimeRange, enumerate_primes
from .verifier import recheck_witness

__all__ = [
    "DOMAIN_START",
    "domain",
    "SIX_TERM_CUBIC",
    "OUTCOMES",
    "FilterCounts",
    "stage_mod8",
    "stage_legendre",
    "stage_cubic",
    "run_pipeline",
    "count_filters",
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


def domain(lo: int, hi: int) -> tuple[int, int]:
    """The part of [lo, hi) the problem covers: lo raised to DOMAIN_START, hi to at least lo."""
    lo = max(lo, DOMAIN_START)
    return lo, max(hi, lo)


def stage_mod8(p: int) -> bool:
    """True when p survives stage 0, that is p == 5 (mod 8)."""
    return p % 8 == 5


def stage_legendre(p: int) -> str | None:
    """Stage 1: None on survival, else the outcome naming the symbol that rejected p.

    The 5-test runs first, so a prime failing both is attributed to 5.
    """
    if jacobi(5, p) != -1:
        return "rejected_legendre5"
    if jacobi(-23, p) != 1:
        return "rejected_legendre23"
    return None


def stage_cubic(p: int, strict: bool = False) -> tuple[int, int] | None:
    """Stage 2: None on survival, else the rejecting root (y, x) pair.

    The first root y, in increasing order, for which sqrt_mod(4y+25, p)
    is not None is lifted to x.  p must be 3 (mod 4) or 5 (mod 8), as for
    sqrt_mod; every prime reaching stage 2 is 5 (mod 8).

    strict=True skips the (1957/p) == +1 shortcut and always enumerates
    the roots; it can only reject more, never fewer.  The returned x lies
    in [3, p-6], so (x-1)! == (x+5)! is a collision inside 2! .. (p-1)!,
    and recheck_witness confirms it before it is released.
    """
    if not strict and jacobi(1957, p) == 1:
        return None
    for y in cubic_roots(SIX_TERM_CUBIC, p):
        s = sqrt_mod(4 * y + 25, p)
        if s is not None:
            break
    else:
        return None
    # x(x+5) == y with x = (-5 + sqrt(4y+25)) / 2; the smallest liftable
    # root and sqrt_mod's canonical root keep the witness deterministic
    x = (s - 5) % p * pow(2, -1, p) % p
    if x <= 2:
        # 0! == 6! (p | 719) or 1! == 7! (p | 5039): the other lift is valid
        x = p - 5 - x
    if not recheck_witness(p, x - 1, x + 5):
        raise ArithmeticError(f"lifted witness x={x} fails its recheck mod {p}")
    return y, x


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


@dataclass
class FilterCounts:
    """Aggregate pipeline statistics over a prime range.

    stage1_survivors are the primes that reached stage 2 (they passed the
    mod-8 and both symbol tests); stage2_survivors additionally passed
    the cubic stage and are the candidates a verifier must scan.
    """

    lo: int
    hi: int
    examined: int = 0
    rejected_mod8: int = 0
    rejected_legendre5: int = 0
    rejected_legendre23: int = 0
    rejected_cubic: int = 0
    candidates: int = 0
    stage1_survivors: list[int] = field(default_factory=list)
    stage2_survivors: list[int] = field(default_factory=list)


def count_filters(lo: int, hi: int, strict: bool = False) -> FilterCounts:
    """Tally every pipeline outcome for primes in [lo, hi).

    The primes walked are those in domain(lo, hi), as in a search; the
    counts still record the lo and hi asked for.
    """
    counts = FilterCounts(lo=lo, hi=hi)
    for p in enumerate_primes(PrimeRange(*domain(lo, hi))):
        outcome, _ = run_pipeline(p, strict)
        counts.examined += 1
        setattr(counts, outcome, getattr(counts, outcome) + 1)
        if outcome == "rejected_cubic" or outcome == "candidates":
            counts.stage1_survivors.append(p)
        if outcome == "candidates":
            counts.stage2_survivors.append(p)
    return counts

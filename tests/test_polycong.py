import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    brute_roots,
    cubic_discriminant,
    euler_symbol,
    factor_parity,
    naive_primes,
    sextic_substitution_check,
)
from socprimes.polycong import poly_roots

ODD_PRIMES = [p for p in naive_primes(2000) if p > 2]

# the two cubics the pipeline is built around, low to high
SIX_TERM = (-1, 24, 10, 1)
THREE_TERM = (-1, 2, 3, 1)

odd_primes = st.sampled_from(ODD_PRIMES)
small_coeff = st.integers(-30, 30)


def from_roots(roots):
    """Low-to-high coefficients of the product of (y - r) over roots."""
    coeffs = [1]
    for r in roots:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return tuple(coeffs)


class TestDiscriminant:
    """The closed-form oracle that factor_parity and the filter tests use."""

    def test_pipeline_constants(self):
        assert cubic_discriminant(SIX_TERM) == 1957
        assert cubic_discriminant(THREE_TERM) == -23

    def test_hand_computed(self):
        # y^3 - 1: disc of x^3 + d is -27 d^2
        assert cubic_discriminant((-1, 0, 0, 1)) == -27
        # y(y-1)(y+1) = y^3 - y: distinct roots 0, 1, -1 give disc 4
        assert cubic_discriminant((0, -1, 0, 1)) == 4
        # (y-1)^2 (y-2) has a repeated root, so disc 0
        assert cubic_discriminant((-2, 5, -4, 1)) == 0

    @given(small_coeff, small_coeff, small_coeff)
    def test_zero_iff_repeated_root_over_product_form(self, r1, r2, r3):
        # build (y-r1)(y-r2)(y-r3) and compare disc with the root spread
        disc = cubic_discriminant(from_roots((r1, r2, r3)))
        spread = ((r1 - r2) * (r1 - r3) * (r2 - r3)) ** 2
        assert disc == spread


class TestCubicRoots:
    """poly_roots on cubics, the pipeline's own among them."""

    def test_production_cubic_frozen(self):
        assert poly_roots(SIX_TERM, 13) == (5,)
        assert poly_roots(SIX_TERM, 17) == (1, 8, 15)

    def test_discriminant_divisors(self):
        # 1957 = 19 * 103: the cubic has a repeated root there, and the
        # gcd with y^p - y keeps it once
        assert poly_roots(SIX_TERM, 19) == (2, 5)
        assert poly_roots(SIX_TERM, 103) == (32, 82)

    def test_cube_roots_of_unity(self):
        assert poly_roots((-1, 0, 0, 1), 7) == (1, 2, 4)
        assert poly_roots((-1, 0, 0, 1), 5) == (1,)

    def test_repeated_root_cubic(self):
        # (y-1)^2 (y-2): disc 0 at every p, roots {1, 2}
        assert poly_roots((-2, 5, -4, 1), 7) == (1, 2)

    def test_rejects_even_or_tiny_modulus(self):
        with pytest.raises(ValueError):
            poly_roots(SIX_TERM, 10)
        with pytest.raises(ValueError):
            poly_roots(SIX_TERM, 2)

    def test_exhaustive_small_primes_production_cubic(self):
        for p in ODD_PRIMES:
            assert poly_roots(SIX_TERM, p) == brute_roots(SIX_TERM, p), p

    def test_deterministic_when_splitting(self):
        # p = 17 gives three roots, so the shifts run; they are fixed, so
        # repeated calls are identical
        first = poly_roots(SIX_TERM, 17)
        for _ in range(5):
            assert poly_roots(SIX_TERM, 17) == first

    @given(small_coeff, small_coeff, small_coeff, odd_primes)
    def test_matches_brute_force(self, b, c, d, p):
        f = (d, c, b, 1)
        assert poly_roots(f, p) == brute_roots(f, p)


class TestPolyRoots:
    """poly_roots at every degree from 1 to 7."""

    @given(st.lists(small_coeff, min_size=1, max_size=7), odd_primes)
    def test_matches_brute_force(self, low, p):
        f = (*low, 1)
        assert poly_roots(f, p) == brute_roots(f, p)

    @given(st.lists(st.integers(-12, 12), min_size=1, max_size=7), odd_primes)
    def test_chosen_roots_with_repeats(self, roots, p):
        f = from_roots(roots)
        assert poly_roots(f, p) == tuple(sorted({r % p for r in roots}))

    def test_every_residue_a_root(self):
        # y^p - y vanishes everywhere; y^7 - y mod 3 has degree above p
        assert poly_roots((0, -1, 0, 0, 0, 1), 5) == (0, 1, 2, 3, 4)
        assert poly_roots((0, -1, 0, 0, 0, 0, 0, 1), 3) == (0, 1, 2)
        assert poly_roots(from_roots(range(7)), 7) == tuple(range(7))

    def test_low_degrees(self):
        assert poly_roots((4, 1), 13) == (9,)
        assert poly_roots((-1, 1, 1), 11) == (3, 7)  # y^2 + y - 1, (5/11) = +1
        assert poly_roots((-1, 1, 1), 13) == ()  # (5/13) = -1
        assert poly_roots((0, 0, 1), 13) == (0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            poly_roots((1, 2), 13)  # not monic
        with pytest.raises(ValueError):
            poly_roots((1, 14), 13)  # monic only mod 13
        with pytest.raises(ValueError):
            poly_roots((1,), 13)  # degree 0
        with pytest.raises(ValueError):
            poly_roots((), 13)
        with pytest.raises(ValueError):
            poly_roots((1, 1), 4)  # even modulus

    def test_deterministic_at_degree_7(self):
        f = from_roots((1, 2, 3, 5, 8, 13, 21))
        first = poly_roots(f, 1999)
        assert first == (1, 2, 3, 5, 8, 13, 21)
        for _ in range(3):
            assert poly_roots(f, 1999) == first


class TestFactorParity:
    def test_quadratic_frozen(self):
        # x^2 + x - 1 has discriminant 5
        irreducible = factor_parity((-1, 1, 1), 13)
        assert (irreducible.degree, irreducible.nu, irreducible.discriminant) == (2, 1, 5)
        assert irreducible.symbol == -1 and irreducible.holds
        split = factor_parity((-1, 1, 1), 11)
        assert split.nu == 2 and split.symbol == 1 and split.holds

    def test_cubic_frozen(self):
        one_root = factor_parity(SIX_TERM, 13)
        assert one_root.nu == 2 and one_root.symbol == -1 and one_root.holds
        three_roots = factor_parity(SIX_TERM, 17)
        assert three_roots.nu == 3 and three_roots.symbol == 1 and three_roots.holds

    def test_linear(self):
        parity = factor_parity((4, 1), 13)
        assert parity.nu == 1 and parity.discriminant == 1 and parity.holds

    def test_validation(self):
        with pytest.raises(ValueError):
            factor_parity((1, 2), 13)  # not monic
        with pytest.raises(ValueError):
            factor_parity((1,), 13)  # degree 0
        with pytest.raises(ValueError):
            factor_parity((1, 0, 0, 0, 1), 13)  # degree 4
        with pytest.raises(ValueError):
            factor_parity((-1, 1, 1), 5)  # p divides disc 5
        with pytest.raises(ValueError):
            factor_parity(SIX_TERM, 19)  # 19 divides 1957

    @given(small_coeff, small_coeff, small_coeff, odd_primes)
    def test_parity_law_holds_for_cubics(self, b, c, d, p):
        f = (d, c, b, 1)
        if cubic_discriminant(f) % p == 0:
            return
        parity = factor_parity(f, p)
        # nu re-derived from an exhaustive root count: squarefree cubics
        # factor as 3 linears, linear * quadratic, or irreducible
        roots = brute_roots(f, p)
        nu = {3: 3, 1: 2, 0: 1}[len(roots)]
        assert parity.nu == nu
        assert parity.symbol == euler_symbol(cubic_discriminant(f), p)
        assert parity.holds

    @given(small_coeff, small_coeff, odd_primes)
    def test_parity_law_holds_for_quadratics(self, b, c, p):
        disc = b * b - 4 * c
        if disc % p == 0:
            return
        parity = factor_parity((c, b, 1), p)
        roots = sum(1 for x in range(p) if (x * x + b * x + c) % p == 0)
        assert parity.nu == (2 if roots == 2 else 1)
        assert parity.holds


class TestSexticSubstitution:
    def test_fixed_points(self):
        assert sextic_substitution_check(4, 197)
        assert sextic_substitution_check(11, 19)
        assert sextic_substitution_check(0, 7)

    @given(st.integers(0, 10**9), odd_primes)
    def test_identity_everywhere(self, x, p):
        assert sextic_substitution_check(x, p)

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import socprimes
from conftest import euler_symbol, naive_primes
from socprimes.modarith import jacobi, sqrt_mod

SRC = str(Path(socprimes.__file__).resolve().parents[1])

ODD_PRIMES = [p for p in naive_primes(2000) if p > 2]

odd_primes = st.sampled_from(ODD_PRIMES)


class TestJacobi:
    def test_pipeline_constants(self):
        assert jacobi(5, 13) == -1
        assert jacobi(-23, 13) == 1
        assert jacobi(1957, 13) == -1
        assert jacobi(5, 29) == 1
        assert jacobi(5, 37) == -1
        assert jacobi(-23, 37) == -1

    def test_zero_on_shared_factor(self):
        assert jacobi(0, 9) == 0
        assert jacobi(21, 35) == 0

    def test_rejects_bad_modulus(self):
        for n in (0, 1, 2, 8, -5):
            with pytest.raises(ValueError):
                jacobi(3, n)

    def test_exhaustive_against_euler(self):
        for p in ODD_PRIMES:
            if p > 200:
                break
            for a in range(p):
                assert jacobi(a, p) == euler_symbol(a, p), (a, p)

    @given(st.integers(-(10**12), 10**12), odd_primes)
    def test_against_euler(self, a, p):
        assert jacobi(a, p) == euler_symbol(a, p)

    @given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6), st.integers(1, 2000))
    def test_multiplicative(self, a, b, n_seed):
        n = 2 * n_seed + 1
        if n < 3:
            n = 3
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    @given(st.integers(-(10**6), 10**6), st.integers(1, 2000))
    def test_periodic(self, a, n_seed):
        n = 2 * n_seed + 1
        if n < 3:
            n = 3
        assert jacobi(a, n) == jacobi(a + n, n) == jacobi(a - 7 * n, n)


class TestSqrtMod:
    def test_known(self):
        assert sqrt_mod(3, 13) == 4
        assert sqrt_mod(6, 13) is None
        assert sqrt_mod(0, 13) == 0
        assert sqrt_mod(169, 197) == 13

    def test_exhaustive_small(self):
        for p in ODD_PRIMES:
            if p > 100:
                break
            squares = {x * x % p for x in range(p)}
            for a in range(p):
                s = sqrt_mod(a, p)
                if a in squares:
                    assert s is not None and s * s % p == a
                    assert 0 <= s <= (p - 1) // 2, "canonical root is the smaller one"
                else:
                    assert s is None

    @given(odd_primes, st.integers(0, 10**9))
    def test_roundtrip_and_canonical(self, p, x):
        a = x * x % p
        s = sqrt_mod(a, p)
        assert s is not None
        assert s * s % p == a
        assert s <= (p - 1) // 2

    @given(odd_primes, st.integers(0, 10**9))
    def test_none_only_for_nonresidues(self, p, a):
        s = sqrt_mod(a, p)
        if s is None:
            assert euler_symbol(a, p) == -1
        else:
            assert s * s % p == a % p

    def test_all_residue_classes_mod_8(self):
        # Tonelli-Shanks has distinct shapes for p % 4 == 3, p % 8 == 5,
        # and p % 8 == 1; pin one working prime from each class
        for p in (19, 29, 41, 97, 1009):
            for a in range(1, 30):
                s = sqrt_mod(a, p)
                if s is not None:
                    assert s * s % p == a % p


#: Odd composite moduli Tonelli-Shanks cannot serve: 9 and 25 have no z
#: with (z/n) = -1, 21 sends the search for i past m, and the exponent
#: shortcut for 15 (15 == 3 mod 4) yields 1, which does not square to 4.
COMPOSITE_CASES = [(4, 9), (2, 25), (4, 21), (4, 15)]


class TestSqrtModCompositeModulus:
    @pytest.mark.parametrize("a, n", COMPOSITE_CASES)
    def test_refused_by_name(self, a, n):
        # in a child process with a timeout: a sqrt_mod without the bounds
        # spins forever on some of these, and must fail rather than hang
        code = (f"from socprimes.modarith import sqrt_mod\n"
                f"try:\n    print('root', sqrt_mod({a}, {n}))\n"
                f"except ValueError as exc:\n    print('ValueError', exc)\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={"PYTHONPATH": SRC}, timeout=20)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("ValueError") and f" {n} " in done.stdout, done.stdout

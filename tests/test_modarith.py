import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import socprimes
from conftest import euler_symbol, naive_primes
from socprimes.modarith import jacobi, sqrt_mod

SRC = str(Path(socprimes.__file__).resolve().parents[1])

ODD_PRIMES = [p for p in naive_primes(2000) if p > 2]

odd_primes = st.sampled_from(ODD_PRIMES)

#: The primes sqrt_mod has a closed form for: 3 (mod 4) and 5 (mod 8).
CLOSED_FORM_PRIMES = [p for p in ODD_PRIMES if p % 8 != 1]

closed_form_primes = st.sampled_from(CLOSED_FORM_PRIMES)


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
        # every prime the closed forms serve below 2000, every a, against brute force
        for p in CLOSED_FORM_PRIMES:
            roots = {}
            for x in range((p + 1) // 2):
                roots.setdefault(x * x % p, x)
            for a in range(p):
                assert sqrt_mod(a, p) == roots.get(a), (a, p)

    @given(closed_form_primes, st.integers(0, 10**9))
    def test_roundtrip_and_canonical(self, p, x):
        a = x * x % p
        s = sqrt_mod(a, p)
        assert s is not None
        assert s * s % p == a
        assert s <= (p - 1) // 2

    @given(closed_form_primes, st.integers(0, 10**9))
    def test_none_only_for_nonresidues(self, p, a):
        s = sqrt_mod(a, p)
        if s is None:
            assert euler_symbol(a, p) == -1
        else:
            assert s * s % p == a % p

    def test_all_residue_classes_mod_8(self):
        # a^((p+1)/4) serves p == 3 and 7 (mod 8), Atkin's form p == 5;
        # pin small primes and primes just below 2^61 from each class
        for p in (19, 23, 29, 2**61 - 45, 2**61 - 1, 2**61 - 259):
            assert p % 8 != 1
            for a in range(-5, 30):
                s = sqrt_mod(a, p)
                if s is None:
                    assert euler_symbol(a, p) == -1, (a, p)
                else:
                    assert s * s % p == a % p and s <= (p - 1) // 2, (a, p)

    def test_refuses_one_mod_8(self):
        # no closed form: refused by name, even for a perfect square
        for p in [17, 41, 97, 1009, 998244353]:
            with pytest.raises(ValueError, match=f" {p} "):
                sqrt_mod(4, p)

    @given(st.integers(4, 2500), st.data())
    def test_composite_modulus_never_lies(self, half, data):
        # for an odd composite n the closed forms may refuse (ValueError),
        # but a None means no root exists and a root squares back to a
        n = 2 * half + 1
        assume(n % 8 != 1 and any(n % d == 0 for d in range(3, isqrt(n) + 1, 2)))
        a = data.draw(st.integers(0, n - 1))
        try:
            s = sqrt_mod(a, n)
        except ValueError as exc:
            assert f" {n} " in str(exc)
            return
        if s is None:
            assert all(x * x % n != a for x in range(n)), (a, n)
        else:
            assert s * s % n == a, (a, n)


#: Odd composite moduli sqrt_mod refuses: 9 and 25 are 1 (mod 8), which
#: has no closed form, and for 21 (5 mod 8) and 15 (3 mod 4) the closed
#: forms yield 7 and 1, which do not square back to 4.  (A Tonelli-Shanks
#: without bounds once spun forever on the first three.)
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

"""Quotient ring arithmetic: contexts, multiplication, norms, classification."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclocert import (
    RingElement,
    classify_unit,
    cyclotomic_value,
    element,
    make_context,
    one,
    pth_residue,
    ring_mul,
    ring_norm,
    ring_pow,
    scalar,
    theta,
    zero,
)
from cyclocert.ring import PRIME_DEGREES, _window_width
from helpers import (
    cubic_norm,
    raw_context,
    schoolbook_mul,
    sieve_primes,
    slow_pow,
    square_and_multiply,
)


def ctx7():
    return make_context(7, 3, 2)


class TestMakeContext:
    def test_small_cubic_context(self):
        ctx = ctx7()
        assert ctx.phi_p_n == 57

    def test_degenerate_base_rejected(self):
        for d in (14, 7, 0, -5):
            with pytest.raises(ValueError, match="degenerate base: d ≡ 0|base d must be positive"):
                make_context(7, 3, d)

    def test_reference_degree5_context(self):
        n = 10376766241
        ctx = make_context(n, 5, 2)
        assert ctx.phi_p_n == cyclotomic_value(n, 5) == sum(n**i for i in range(5))

    @pytest.mark.parametrize("n", [2, 3, 10, 100])
    def test_even_or_tiny_modulus_rejected(self, n):
        with pytest.raises(ValueError):
            make_context(n, 3, 2)

    def test_base_reduced_mod_n(self):
        assert make_context(7, 3, 9).d == 2

    def test_base_congruent_one_rejected(self):
        with pytest.raises(ValueError):
            make_context(7, 3, 8)

    def test_nonprime_degree_rejected(self):
        with pytest.raises(ValueError):
            make_context(7, 4, 2)

    def test_phi_times_n_minus_one(self):
        for n, p in [(7, 3), (13, 3), (11, 5), (9, 7)]:
            ctx = make_context(n, p, 2)
            assert ctx.phi_p_n * (n - 1) == n**p - 1


def _coefficient_products(p, square):
    """Products whose two operands are both input coefficients in one ring_mul."""
    products = []

    class Coefficient(int):
        def __mul__(self, other):
            if isinstance(other, Coefficient):
                products.append((int(self), int(other)))
            return int(self) * int(other)

        __rmul__ = __mul__

    ctx = make_context(1009, p, 3)
    a = RingElement(tuple(Coefficient(c) for c in range(2, p + 2)))
    b = a if square else RingElement(tuple(Coefficient(c) for c in range(5, p + 5)))
    result = ring_mul(ctx, a, b)
    count = len(products)
    assert result == schoolbook_mul(ctx, element(ctx, a.coeffs), element(ctx, b.coeffs))
    return count


class TestRingMul:
    @pytest.mark.parametrize("p", PRIME_DEGREES)
    def test_coefficient_product_counts(self, p):
        assert _coefficient_products(p, square=False) == p * p
        assert _coefficient_products(p, square=True) == p * (p + 1) // 2

    @pytest.mark.parametrize("coeffs", [(1, 2), (1, 2, 3, 4)])
    def test_wrong_length_rejected(self, coeffs):
        ctx = ctx7()
        bad = RingElement(coeffs)
        for a, b in [(bad, bad), (bad, theta(ctx)), (theta(ctx), bad)]:
            with pytest.raises(ValueError):
                ring_mul(ctx, a, b)

    def test_theta_cubed_reduces_to_d(self):
        ctx = ctx7()
        assert ring_mul(ctx, theta(ctx), element(ctx, (0, 0, 1))).coeffs == (2, 0, 0)

    def test_square_without_reduction(self):
        ctx = ctx7()
        a = element(ctx, (1, 1))
        assert ring_mul(ctx, a, a).coeffs == (1, 2, 1)

    def test_theta_fourth_power(self):
        ctx = ctx7()
        t2 = element(ctx, (0, 0, 1))
        assert ring_mul(ctx, t2, t2).coeffs == (0, 2, 0)

    @pytest.mark.parametrize("n", [5, 7])
    def test_commutative_exhaustively_tiny(self, n):
        ctx = make_context(n, 3, 2)
        elems = [RingElement(c) for c in product(range(n), repeat=3)]
        for a in elems:
            for b in elems:
                assert ring_mul(ctx, a, b) == ring_mul(ctx, b, a)

    @given(st.data())
    @settings(max_examples=60)
    def test_commutative_and_associative_random(self, data):
        n = data.draw(st.integers(3, 2**64).map(lambda v: v * 2 + 1), label="N")
        d = data.draw(st.integers(2, n - 1), label="d")
        ctx = make_context(n, 3, d)
        coeff = st.integers(0, n - 1)
        a, b, c = (
            RingElement(tuple(data.draw(coeff) for _ in range(3))) for _ in range(3)
        )
        assert ring_mul(ctx, a, b) == ring_mul(ctx, b, a)
        left = ring_mul(ctx, ring_mul(ctx, a, b), c)
        right = ring_mul(ctx, a, ring_mul(ctx, b, c))
        assert left == right


class TestRingPow:
    def test_theta_sixth_is_scalar_four(self):
        ctx = ctx7()
        assert ring_pow(ctx, theta(ctx), 6).coeffs == (4, 0, 0)

    def test_zeroth_power_is_identity(self):
        ctx = ctx7()
        assert ring_pow(ctx, theta(ctx), 0) == one(ctx)

    def test_matches_repeated_multiplication(self):
        ctx = ctx7()
        a = element(ctx, (1, 1))
        assert ring_pow(ctx, a, 6) == slow_pow(ctx, a, 6)
        assert ring_pow(ctx, a, 6).coeffs == (3, 1, 6)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ring_pow(ctx7(), theta(ctx7()), -1)

    @pytest.mark.parametrize("coeffs", [(1, 2), (1, 2, 3, 4)])
    @pytest.mark.parametrize("e", [0, 1, 2, 6, 2**70 + 1])
    def test_wrong_length_rejected(self, coeffs, e):
        with pytest.raises(ValueError):
            ring_pow(ctx7(), RingElement(coeffs), e)

    @given(st.data())
    @settings(max_examples=40)
    def test_exponent_additivity(self, data):
        n = data.draw(st.integers(3, 2**32).map(lambda v: v * 2 + 1))
        d = data.draw(st.integers(2, n - 1))
        ctx = make_context(n, 3, d)
        a = RingElement(tuple(data.draw(st.integers(0, n - 1)) for _ in range(3)))
        e1 = data.draw(st.integers(0, 500))
        e2 = data.draw(st.integers(0, 500))
        combined = ring_pow(ctx, a, e1 + e2)
        split = ring_mul(ctx, ring_pow(ctx, a, e1), ring_pow(ctx, a, e2))
        assert combined == split


def _width_boundaries(limit=1800):
    """Exponent bit lengths at which the sliding-window width changes."""
    return [bits for bits in range(2, limit + 1) if _window_width(bits) != _window_width(bits - 1)]


# 0, 1, 2 and 2^j - 1, 2^j, 2^j + 1 on both sides of every width change
BOUNDARY_EXPONENTS = sorted(
    {0, 1, 2}
    | {
        (1 << j) + delta
        for bits in _width_boundaries()
        for j in (bits - 1, bits)
        for delta in (-1, 0, 1)
    }
)

# a few isolated set bits: long runs of zeros between short windows
SPARSE_EXPONENTS = st.lists(st.integers(0, 600), min_size=1, max_size=4).map(
    lambda positions: sum(1 << i for i in set(positions))
)


def _kernel_case(data):
    p = data.draw(st.sampled_from(PRIME_DEGREES), label="p")
    n = data.draw(st.integers(2, 2**80), label="N")
    d = data.draw(st.integers(1, 2**16).filter(lambda v: v % n), label="d")
    ctx = raw_context(n, p, d)
    # coefficients outside [0, N) too: the kernel reduces what it is given
    coeff = st.integers(-(2**90), 2**90)
    a, b = (RingElement(tuple(data.draw(coeff) for _ in range(p))) for _ in range(2))
    return ctx, a, b


class TestKernelOracle:
    """ring_mul and ring_pow against an independent schoolbook product."""

    def test_width_boundaries_cover_every_width(self):
        assert [_window_width(bits) for bits in _width_boundaries()] == list(range(2, 8))

    @pytest.mark.parametrize("p", PRIME_DEGREES)
    @pytest.mark.parametrize("n", [1009, 1024])
    def test_boundary_exponents(self, p, n):
        ctx = raw_context(n, p, 3)
        a = element(ctx, range(2, p + 2))
        for e in BOUNDARY_EXPONENTS:
            assert ring_pow(ctx, a, e) == square_and_multiply(ctx, a, e), e

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_products_match_oracle(self, data):
        ctx, a, b = _kernel_case(data)
        assert ring_mul(ctx, a, b) == schoolbook_mul(ctx, a, b)
        assert ring_mul(ctx, a, a) == schoolbook_mul(ctx, a, a)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_pow_matches_oracle(self, data):
        ctx, a, _ = _kernel_case(data)
        e = data.draw(
            st.one_of(
                st.sampled_from(BOUNDARY_EXPONENTS[:20]),
                SPARSE_EXPONENTS,
                st.integers(0, 2**600),
            ),
            label="e",
        )
        for exponent in (1, e):
            assert ring_pow(ctx, a, exponent) == square_and_multiply(ctx, a, exponent)


class TestRingNorm:
    def test_norm_of_theta_is_d(self):
        assert ring_norm(ctx7(), theta(ctx7())) == 2

    def test_norm_of_scalar_is_cube(self):
        ctx = ctx7()
        assert ring_norm(ctx, scalar(ctx, 3)) == 27 % 7 == 6

    def test_norm_of_one_plus_theta(self):
        ctx = ctx7()
        assert ring_norm(ctx, element(ctx, (1, 1))) == 3

    def test_matches_cubic_closed_form(self):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randrange(3, 2**48) * 2 + 1
            d = rng.randrange(2, n - 1)
            ctx = make_context(n, 3, d)
            a = RingElement(tuple(rng.randrange(n) for _ in range(3)))
            assert ring_norm(ctx, a) == cubic_norm(ctx, a)

    @pytest.mark.parametrize("p", PRIME_DEGREES)
    def test_field_norm_is_power_by_phi(self, p):
        # for prime N ≡ 1 (mod p) and d not a p-th power, the ring is the
        # field of N^p elements, and a^Phi_p(N) is the scalar norm of a
        rng = random.Random(p)
        for n in sieve_primes(3000):
            if n % p != 1:
                continue
            d = next(d for d in range(2, n) if not pth_residue(d, n, p))
            ctx = make_context(n, p, d)
            for _ in range(5):
                a = RingElement(tuple(rng.randrange(n) for _ in range(p)))
                assert ring_pow(ctx, a, ctx.phi_p_n) == scalar(ctx, ring_norm(ctx, a))

    def test_degree5_norm_of_theta(self):
        # product of the five roots of x^5 - d is d
        ctx = make_context(11, 5, 2)
        assert ring_norm(ctx, theta(ctx)) == 2

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_higher_degree_norm_of_theta(self, p):
        ctx = make_context(29, p, 3)
        assert ring_norm(ctx, theta(ctx)) == 3
        assert ring_norm(ctx, one(ctx)) == 1

    def test_bareiss_against_laplace(self):
        from cyclocert.ring import _bareiss_det

        def laplace(m):
            n = len(m)
            if n == 1:
                return m[0][0]
            total = 0
            for j in range(n):
                if m[0][j]:
                    minor = [row[:j] + row[j + 1 :] for row in m[1:]]
                    total += (-1) ** j * m[0][j] * laplace(minor)
            return total

        rng = random.Random(77)
        for _ in range(200):
            n = rng.randrange(1, 6)
            m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            assert _bareiss_det(m) == laplace(m)

    @given(st.data())
    @settings(max_examples=60)
    def test_multiplicative(self, data):
        n = data.draw(st.integers(3, 2**40).map(lambda v: v * 2 + 1))
        d = data.draw(st.integers(2, n - 1))
        ctx = make_context(n, 3, d)
        a = RingElement(tuple(data.draw(st.integers(0, n - 1)) for _ in range(3)))
        b = RingElement(tuple(data.draw(st.integers(0, n - 1)) for _ in range(3)))
        prod_norm = ring_norm(ctx, ring_mul(ctx, a, b))
        assert prod_norm == ring_norm(ctx, a) * ring_norm(ctx, b) % n

    @given(st.data())
    @settings(max_examples=15)
    def test_multiplicative_degree5(self, data):
        n = data.draw(st.integers(3, 2**24).map(lambda v: v * 2 + 1))
        d = data.draw(st.integers(2, n - 1))
        ctx = make_context(n, 5, d)
        a = RingElement(tuple(data.draw(st.integers(0, n - 1)) for _ in range(5)))
        b = RingElement(tuple(data.draw(st.integers(0, n - 1)) for _ in range(5)))
        prod_norm = ring_norm(ctx, ring_mul(ctx, a, b))
        assert prod_norm == ring_norm(ctx, a) * ring_norm(ctx, b) % n


class TestClassifyUnit:
    def test_theta_is_unit(self):
        assert classify_unit(ctx7(), theta(ctx7())) == 1

    def test_zero_divisor_factors_modulus(self):
        ctx = make_context(15, 3, 2)
        assert classify_unit(ctx, scalar(ctx, 5)) == 5

    def test_zero_element(self):
        # no shortcut for zero: its norm is 0, so g = N
        for p in PRIME_DEGREES:
            ctx = make_context(7, p, 2)
            assert ring_norm(ctx, zero(ctx)) == 0
            assert classify_unit(ctx, zero(ctx)) == 7

    @pytest.mark.parametrize("n", [7, 13])
    def test_field_structure_every_nonzero_is_unit(self, n):
        # d = 2 is a cubic non-residue mod 7 and 13, so the ring is a field
        assert pow(2, (n - 1) // 3, n) != 1
        ctx = make_context(n, 3, 2)
        for coeffs in product(range(n), repeat=3):
            if coeffs == (0, 0, 0):
                continue
            assert classify_unit(ctx, RingElement(coeffs)) == 1

    def test_witness_divides_modulus(self):
        rng = random.Random(5)
        for p in PRIME_DEGREES:
            found = 0
            while found < 20:
                n = rng.randrange(3, 2**20) * 2 + 1
                d = rng.randrange(2, n - 1)
                ctx = make_context(n, p, d)
                g = classify_unit(ctx, RingElement(tuple(rng.randrange(n) for _ in range(p))))
                assert n % g == 0, (n, p, d)
                found += g not in (1, n)


class TestElementConstruction:
    def test_short_vectors_padded(self):
        ctx = ctx7()
        assert element(ctx, (1,)).coeffs == (1, 0, 0)

    def test_too_many_coefficients_rejected(self):
        with pytest.raises(ValueError):
            element(ctx7(), (1, 2, 3, 4))

    def test_coefficients_reduced(self):
        assert element(ctx7(), (-1, 9, 7)).coeffs == (6, 2, 0)

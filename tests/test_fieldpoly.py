import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fqlab import (
    FieldSpec,
    Poly,
    PolyError,
    format_poly,
    monic_from_index,
    norm,
    parse_poly,
    poly_gcd_lcm,
)
from fqlab.fieldpoly import ext_gcd
from oracles import enumerate_monic


def P(text, field):
    return parse_poly(text, field)


class TestFieldSpec:
    def test_valid_primes(self):
        for p in (2, 3, 5, 7, 251):
            assert FieldSpec(p).p == p

    def test_rejects_composite_and_out_of_range(self):
        for p in (1, 4, 6, 9, 253, 257):
            with pytest.raises(PolyError):
                FieldSpec(p)


class TestParseFormat:
    def test_direct_reading(self, field2):
        assert P("x^2+x+1", field2).coeffs == (1, 1, 1)

    def test_zero_case(self, field3):
        f = P("0", field3)
        assert f.is_zero and f.coeffs == ()
        assert f.degree is None

    def test_coefficient_out_of_range(self, field2):
        with pytest.raises(PolyError):
            P("2x+1", field2)

    def test_example_with_coefficients(self, field3):
        f = P("x^3+2x+1", field3)
        assert f.coeffs == (1, 2, 0, 1)
        assert format_poly(f) == "x^3+2x+1"

    @pytest.mark.parametrize("bad", [
        "", "x^1+1", "x^0", "1+x", "x+x", "0x+1", "x^2+0x+1", "-x", "x**2",
        "x^\u0662+x", "\u0662", "x^02", "01", "02x", "1x", "x^2\n+1",
    ])
    def test_non_canonical_rejected(self, field3, bad):
        with pytest.raises(PolyError):
            P(bad, field3)

    def test_exponent_bound(self, field2):
        # checked before the coefficient list is allocated
        from fqlab.fieldpoly import MAX_PARSE_DEGREE
        assert P(f"x^{MAX_PARSE_DEGREE}", field2).degree == MAX_PARSE_DEGREE
        for text in (f"x^{MAX_PARSE_DEGREE + 1}", "x^100000000000000000000+1"):
            with pytest.raises(PolyError):
                P(text, field2)

    @given(st.integers(min_value=0, max_value=3 ** 8 - 1))
    def test_roundtrip_p3(self, enc):
        field = FieldSpec(3)
        from fqlab.fieldpoly import poly_from_encoding
        f = poly_from_encoding(field, enc)
        assert P(format_poly(f), field) == f

    @given(st.sampled_from([2, 3, 5, 11, 251]).flatmap(
        lambda p: st.tuples(st.just(p), st.lists(
            st.integers(min_value=0, max_value=p - 1), max_size=14))))
    def test_format_then_parse_is_identity(self, p_coeffs):
        p, coeffs = p_coeffs
        f = Poly(FieldSpec(p), coeffs)
        assert P(format_poly(f), f.field) == f

    @given(st.sampled_from([3, 251]),
           st.text(alphabet="0123456789x^+ \n\u0662\uff11", max_size=10))
    def test_only_canonical_strings_parse(self, p, text):
        # apart from spaces (and whitespace around the string), whatever
        # parses is exactly what format_poly writes for the result
        try:
            f = P(text, FieldSpec(p))
        except PolyError:
            return
        assert text.strip().replace(" ", "") == format_poly(f)


class TestArith:
    def test_char2_square(self, field2):
        a = P("x+1", field2)
        assert a * a == P("x^2+1", field2)

    def test_divmod_reconstructs(self, field2):
        a, b = P("x^3", field2), P("x+1", field2)
        s, t = divmod(a, b)
        assert (s, t) == (P("x^2+x+1", field2), P("1", field2))
        assert s * b + t == a
        assert t.degree < b.degree

    def test_add_cancellation(self, field2):
        assert P("x^2+x", field2) + P("x^2+1", field2) == P("x+1", field2)

    def test_division_by_zero(self, field2):
        with pytest.raises(ZeroDivisionError):
            divmod(P("x", field2), P("0", field2))

    def test_field_mismatch(self, field2, field3):
        with pytest.raises(PolyError):
            P("x", field2) + P("x", field3)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_divmod_contract_random(self, p):
        # a = s*b + t with deg t < deg b, re-multiplied exactly
        field = FieldSpec(p)
        rng = random.Random(1234 + p)
        from fqlab.fieldpoly import poly_from_encoding
        for _ in range(10_000 // p):
            a = poly_from_encoding(field, rng.randrange(p ** 9))
            b = poly_from_encoding(field, rng.randrange(1, p ** 5))
            s, t = divmod(a, b)
            assert s * b + t == a
            assert t.is_zero or t.degree < b.degree

    def test_pow(self, field3):
        f = P("x+2", field3)
        assert f ** 3 == f * f * f
        assert f ** 0 == P("1", field3)


class TestGcdLcm:
    def test_example_gcd(self, field2):
        g, _ = poly_gcd_lcm(P("x^2+x", field2), P("x^2+1", field2))
        assert g == P("x+1", field2)

    def test_gcd_with_zero(self, field3):
        f = P("2x^2+1", field3)
        g, l = poly_gcd_lcm(f, P("0", field3))
        assert g == f.monic()
        assert l.is_zero

    def test_gcd_zero_zero_rejected(self, field2):
        z = P("0", field2)
        with pytest.raises(PolyError):
            poly_gcd_lcm(z, z)

    def test_coprime_lcm(self, field2):
        _, l = poly_gcd_lcm(P("x", field2), P("x+1", field2))
        assert l == P("x^2+x", field2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_gcd_lcm_relations_random(self, p):
        field = FieldSpec(p)
        rng = random.Random(99 + p)
        from fqlab.fieldpoly import poly_from_encoding
        for _ in range(400):
            a = poly_from_encoding(field, rng.randrange(1, p ** 6))
            b = poly_from_encoding(field, rng.randrange(1, p ** 6))
            g, l = poly_gcd_lcm(a, b)
            assert (a % g).is_zero and (b % g).is_zero
            assert (l % a.monic()).is_zero and (l % b.monic()).is_zero
            assert g * l == (a * b).monic()
            assert g.is_monic

    def test_ext_gcd_identity(self, field3):
        rng = random.Random(5)
        from fqlab.fieldpoly import poly_from_encoding
        for _ in range(200):
            a = poly_from_encoding(field3, rng.randrange(1, 3 ** 5))
            b = poly_from_encoding(field3, rng.randrange(1, 3 ** 5))
            g, s, t = ext_gcd(a, b)
            assert s * a + t * b == g


class TestEnumeration:
    def test_degree2_order(self, field2):
        got = enumerate_monic(field2, 2)
        want = [P("x^2", field2), P("x^2+1", field2), P("x^2+x", field2),
                P("x^2+x+1", field2)]
        assert got == want

    def test_count_q_to_n(self, field3):
        assert len(enumerate_monic(field3, 1)) == 3

    @pytest.mark.parametrize("p,n", [(2, 11), (3, 6), (5, 4)])
    def test_bijectivity(self, p, n):
        field = FieldSpec(p)
        seen = set()
        for f in enumerate_monic(field, n):
            assert f.is_monic and f.degree == n
            seen.add(f.coeffs)
        assert len(seen) == p ** n

    def test_index_roundtrip(self, field3):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 7)
            i = rng.randrange(3 ** n)
            f = monic_from_index(field3, n, i)
            assert f.monic_index() == i


class TestNorm:
    def test_examples(self, field2):
        assert norm(P("x^2+1", field2)) == 4
        assert norm(P("0", field2)) == 0
        assert norm(parse_poly("5", FieldSpec(7))) == 1

    def test_multiplicativity(self, field3):
        rng = random.Random(3)
        from fqlab.fieldpoly import poly_from_encoding
        for _ in range(300):
            a = poly_from_encoding(field3, rng.randrange(1, 3 ** 6))
            b = poly_from_encoding(field3, rng.randrange(1, 3 ** 6))
            assert norm(a * b) == norm(a) * norm(b)


class TestImmutability:
    def test_poly_is_immutable_and_hashable(self, field2):
        f = P("x^2+x", field2)
        with pytest.raises(AttributeError):
            f.coeffs = (1,)
        assert len({f, P("x^2+x", field2)}) == 1

    def test_coefficient_validation(self, field2):
        with pytest.raises(PolyError):
            Poly(field2, (0, 3))

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from covercalc.exact import (
    QSeries, convolve, divisors, rat_from_str, rat_to_str, ratio_to_str, sigma, sub_multisets,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


@given(st.lists(st.integers(0, 3), max_size=7))
def test_sub_multisets_count_the_subsets_that_give_them(items):
    # each subset of positions gives one sub-multiset, counted by its ways
    by_subsets = Counter()
    for n in range(len(items) + 1):
        for chosen in itertools.combinations(range(len(items)), n):
            by_subsets[tuple(sorted(items[i] for i in chosen))] += 1
    found = list(sub_multisets(items))
    assert len({taken for _, taken, _ in found}) == len(found)
    assert {tuple(sorted(taken)): ways for ways, taken, _ in found} == by_subsets
    for _, taken, left in found:
        assert Counter(taken) + Counter(left) == Counter(items)


def test_sub_multisets_keep_sorted_items_sorted():
    for ways, taken, left in sub_multisets((5, 3, 3, 1)):
        assert list(taken) == sorted(taken, reverse=True)
        assert list(left) == sorted(left, reverse=True)
    assert [w for w, _, _ in sub_multisets((2, 2, 2))] == [1, 3, 3, 1]


def test_series_mul_difference_of_squares():
    assert convolve((1, 1, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0), 5) == (1, 0, -1, 0, 0, 0)


def test_series_mul_convolution_against_double_sum():
    # coefficient of q^k in (sum sigma(n) q^n)^2 equals the direct double sum
    n = 8
    s = (0, *(sigma(k) for k in range(1, n + 1)))
    sq = convolve(s, s, n)
    for k in range(n + 1):
        direct = sum(
            sigma(d1) * sigma(k - d1) for d1 in range(1, k) if k - d1 >= 1
        )
        assert sq[k] == direct
    assert sq[2] == 1  # sigma(1)*sigma(1)


def test_series_mul_zero_annihilates():
    assert convolve((3, -2, 7, 0, 0), (0,) * 5, 4) == (0,) * 5


def test_series_truncation_to_min_order():
    a = QSeries((1, 1, 1, 1))  # order 3
    b = QSeries((1, 2))  # order 1
    assert (a * b).order == 1


def test_sigma1_examples():
    assert sigma(1) == 1
    assert sigma(2) == 3
    assert sigma(6) == 12  # divisors 1,2,3,6
    with pytest.raises(ValueError):
        sigma(0)


def test_sigma1_multiplicative_on_coprime():
    from math import gcd

    for m in range(1, 51):
        for n in range(1, 51):
            if gcd(m, n) == 1:
                assert sigma(m * n) == sigma(m) * sigma(n)


def test_divisors():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)


def test_sigma_against_trial_division_to_n():
    for n in range(1, 61):
        for k in range(6):
            assert sigma(n, k) == sum(d**k for d in range(1, n + 1) if n % d == 0)


@given(rationals)
def test_rational_field_inverse(a):
    if a != 0:
        assert a * (1 / a) == 1


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


@given(st.lists(rationals, min_size=1, max_size=6),
       st.lists(rationals, min_size=1, max_size=6),
       st.lists(rationals, min_size=1, max_size=6))
def test_series_mul_associative_commutative(xs, ys, zs):
    n = min(len(xs), len(ys), len(zs)) - 1
    assert convolve(xs, ys, n) == convolve(ys, xs, n)
    assert convolve(convolve(xs, ys, n), zs, n) == convolve(xs, convolve(ys, zs, n), n)


def test_serialization_round_trip():
    assert rat_to_str(Fraction(-3, 6)) == "-1/2"
    assert rat_to_str(Fraction(4, 2)) == "2"
    assert rat_to_str(-12) == "-12" and rat_to_str(True) == "1"
    assert rat_from_str("7/3") == Fraction(7, 3)
    s = QSeries((Fraction(1), Fraction(-1, 2), 0, 0))
    assert QSeries.from_json(s.to_json()) == s


@given(st.integers(), st.integers().filter(bool))
def test_ratio_to_str_prints_the_reduced_fraction(num, den):
    assert ratio_to_str(num, den) == rat_to_str(Fraction(num, den))


def test_ratio_to_str_rejects_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        ratio_to_str(3, 0)

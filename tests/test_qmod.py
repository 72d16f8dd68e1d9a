from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from covercalc.exact import QSeries, sigma
from covercalc.qmod import (
    _basis_size,
    eisenstein,
    is_quasimodular,
    quasimodular_basis,
    solve_exact,
)
from qmod_oracles import oracle_basis, oracle_basis_size, oracle_solve, series_mul


ORDER = 45


def test_eisenstein_coefficients():
    e2 = eisenstein(2, ORDER)
    assert e2.coeffs[0] == 1
    assert e2.coeffs[1] == -24
    assert e2.coeffs[2] == -24 * sigma(2)
    e4 = eisenstein(4, ORDER)
    assert e4.coeffs[0] == 1
    assert e4.coeffs[1] == 240
    e6 = eisenstein(6, ORDER)
    assert e6.coeffs[2] == -504 * sigma(2, 5)
    assert e6.coeffs[2] == -16632
    with pytest.raises(ValueError):
        eisenstein(8, ORDER)


def test_basis_grading():
    basis = quasimodular_basis(4, 10)
    names = [mono.name() for mono, _ in basis]
    assert names == ["1", "E2", "E4", "E2^2"]
    basis8 = quasimodular_basis(8, 10)
    assert all(mono.weight <= 8 for mono, _ in basis8)


def test_e2_squared_is_member():
    e2 = eisenstein(2, ORDER)
    s = series_mul(e2, e2)
    report = is_quasimodular(s, weight_bound=4, fit_len=20, holdout_len=18)
    assert report.is_member
    assert dict(report.coefficients) == {"E2^2": Fraction(1)}


def test_sigma_series_is_member():
    # sum sigma(n) q^n = (1 - E2)/24
    s = QSeries((0, *(sigma(n) for n in range(1, ORDER + 1))))
    report = is_quasimodular(s, weight_bound=4, fit_len=20, holdout_len=18)
    assert report.is_member
    assert dict(report.coefficients) == {
        "1": Fraction(1, 24),
        "E2": Fraction(-1, 24),
    }


def test_factorial_series_is_not_member():
    s = QSeries(tuple(factorial(n) for n in range(ORDER + 1)))
    report = is_quasimodular(s, weight_bound=4, fit_len=20, holdout_len=18)
    assert not report.is_member
    assert report.failure_witness is not None


def test_every_basis_monomial_is_member():
    for weight in (4, 6, 8):
        for mono, series in quasimodular_basis(weight, ORDER):
            report = is_quasimodular(series, weight_bound=weight, fit_len=22, holdout_len=18)
            assert report.is_member, mono.name()


def test_e4_squared_in_weight8_span():
    e4 = eisenstein(4, ORDER)
    s = series_mul(e4, e4)
    report = is_quasimodular(s, weight_bound=8, fit_len=22, holdout_len=18)
    assert report.is_member
    assert dict(report.coefficients) == {"E4^2": Fraction(1)}


def test_verdict_stable_under_split_shift():
    member = series_mul(eisenstein(2, ORDER), eisenstein(4, ORDER))
    non_member = QSeries(tuple(factorial(n) for n in range(ORDER + 1)))
    for shift in (-5, 0, 5):
        rep = is_quasimodular(member, weight_bound=6, fit_len=20 + shift, holdout_len=18 - shift)
        assert rep.is_member
        rep2 = is_quasimodular(non_member, weight_bound=6, fit_len=20 + shift, holdout_len=18 - shift)
        assert not rep2.is_member


def test_a_long_series_and_its_truncation_give_equal_reports(monkeypatch):
    # only the first fit_len + holdout_len coefficients are read, so the basis
    # stops at q^(fit_len + holdout_len - 1), however long the series
    import covercalc.qmod as qmod

    orders = []
    real = qmod.quasimodular_basis
    monkeypatch.setattr(qmod, "quasimodular_basis",
                        lambda weight, order: orders.append(order) or real(weight, order))
    member = series_mul(eisenstein(2, 600), eisenstein(4, 600))
    perturbed = QSeries(member.coeffs[:30] + (member.coeffs[30] + 1,) + member.coeffs[31:])
    for series in (member, perturbed):
        assert series.order == 600
        report = is_quasimodular(series, weight_bound=6, fit_len=20, holdout_len=18)
        assert report == is_quasimodular(QSeries(series.coeffs[:38]), weight_bound=6,
                                         fit_len=20, holdout_len=18)
        assert report.is_member is (series is member)
    assert orders == [37] * 4
    assert eisenstein(2, 0) == QSeries((1,))


def test_insufficient_truncation_rejected():
    s = eisenstein(2, 10)
    with pytest.raises(ValueError):
        is_quasimodular(s, weight_bound=4, fit_len=20, holdout_len=18)


# ---------------------------------------------------------------------------
# the integer kernels against the rational oracles they replaced

small_rationals = st.one_of(
    st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
)


def _vector(draw, n):
    return draw(st.lists(small_rationals, min_size=n, max_size=n))


def _matrix(draw, m, n):
    return draw(st.lists(st.lists(small_rationals, min_size=n, max_size=n),
                         min_size=m, max_size=m))


def _product(rows, x):
    return [sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0)) for row in rows]


def _assert_solves(rows, rhs):
    solution = solve_exact(rows, rhs)
    assert solution == oracle_solve(rows, rhs)
    assert solution is not None
    assert all(type(c) is Fraction for c in solution)
    assert _product(rows, solution) == [Fraction(b) for b in rhs]


@st.composite
def full_rank_systems(draw):
    # a unit lower-triangular block over random rows: rank n, consistent
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, n + 4))
    rows = _matrix(draw, m, n)
    for i in range(n):
        rows[i] = [0] * i + [draw(st.integers(1, 9))] + rows[i][i + 1:]
    x = _vector(draw, n)
    return rows, _product(rows, x)


@st.composite
def rank_deficient_systems(draw):
    # rows combined from r < n random rows, with a consistent right side
    n = draw(st.integers(2, 6))
    r = draw(st.integers(1, n - 1))
    m = draw(st.integers(r, n + 4))
    base = _matrix(draw, r, n)
    weights = _matrix(draw, m, r)
    rows = [[sum(Fraction(w) * row[j] for w, row in zip(ws, base)) for j in range(n)]
            for ws in weights]
    x = _vector(draw, n)
    return rows, _product(rows, x)


@st.composite
def inconsistent_systems(draw):
    # a repeated row with a different right side
    rows, rhs = draw(st.one_of(full_rank_systems(), rank_deficient_systems()))
    i = draw(st.integers(0, len(rows) - 1))
    return rows + [list(rows[i])], rhs + [rhs[i] + draw(st.integers(1, 9))]


@st.composite
def systems_with_zero_columns(draw):
    rows, rhs = draw(st.one_of(full_rank_systems(), rank_deficient_systems()))
    n = len(rows[0])
    zeros = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    return [[0 if j in zeros else x for j, x in enumerate(row)] for row in rows], zeros, rhs


@st.composite
def wide_systems(draw):
    # fewer equations than unknowns, consistent
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m + 1, m + 4))
    rows = _matrix(draw, m, n)
    x = _vector(draw, n)
    return rows, _product(rows, x)


@given(full_rank_systems())
def test_solve_matches_oracle_on_full_rank_systems(system):
    _assert_solves(*system)


@given(rank_deficient_systems())
def test_solve_matches_oracle_on_rank_deficient_systems(system):
    _assert_solves(*system)


@given(inconsistent_systems())
def test_solve_matches_oracle_on_inconsistent_systems(system):
    rows, rhs = system
    assert solve_exact(rows, rhs) is None
    assert oracle_solve(rows, rhs) is None


@given(systems_with_zero_columns())
def test_solve_matches_oracle_with_zero_columns(system):
    rows, zeros, rhs = system
    solution = solve_exact(rows, rhs)
    assert solution == oracle_solve(rows, rhs)
    if solution is not None:
        # a zero column is a free variable, and free variables are 0
        assert all(solution[j] == 0 for j in zeros)
        assert _product(rows, solution) == [Fraction(b) for b in rhs]


@given(wide_systems())
def test_solve_matches_oracle_on_wide_systems(system):
    _assert_solves(*system)


def test_solve_on_empty_and_zero_systems():
    assert solve_exact([], []) == oracle_solve([], []) == []
    assert solve_exact([[0, 0]], [0]) == oracle_solve([[0, 0]], [0]) == [0, 0]
    assert solve_exact([[0, 0]], [Fraction(1, 2)]) is None


def test_integer_basis_matches_oracle_up_to_weight_14():
    # the oracle computes every monomial on its own, so its basis for a
    # smaller bound is the prefix of weight <= bound of the bound-14 one
    order = 69
    oracle = oracle_basis(14, order)
    for weight in range(15):
        basis = quasimodular_basis(weight, order)
        assert basis == [item for item in oracle if item[0].weight <= weight]
        assert _basis_size(weight) == len(basis)
        assert all(type(c) is int for _, series in basis for c in series.coeffs)


def test_basis_size_closed_form_matches_the_count_up_to_weight_2000():
    # both sides depend on n = w // 2 through n mod 6 and a cubic, so every
    # w <= 500 and every 13th w above it (each residue mod 12) cover them;
    # the count costs O(w^2), and all 2001 weights take 8 s
    weights = [*range(501), *range(513, 2001, 13), 2000]
    assert all(_basis_size(w) == oracle_basis_size(w) for w in weights)
    assert _basis_size(400) == 234073

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatalyst import (
    Branch,
    Verdict,
    analyze,
    compute_M,
    compute_m,
    construct_states,
    epsilon_decompose,
    mu_admissible_bound,
)

F = Fraction


class TestMuBound:
    def test_worked_example_bound(self):
        # min(1/2 * (2/3)/(4/3), 1/2 * (2/3)/(5/3)) = min(1/4, 1/5)
        assert mu_admissible_bound(F(2, 3), F(1, 3)) == F(1, 5)

    def test_bound_alone_can_break_ordering(self):
        # For (1, 1/10) the closed-form bound is 5/24, yet ordering of the
        # source requires mu <= 1/6 < 5/24; the chooser must end below that.
        assert mu_admissible_bound(F(1), F(1, 10)) == F(5, 24)
        assert construct_states(F(1), F(1, 10)).mu < F(1, 6)

    @given(st.integers(1, 60), st.integers(1, 20), st.integers(2, 20))
    def test_chosen_mu_positive(self, m0_num, m0_den, big_den):
        m0 = F(m0_num, m0_den)
        big = F(big_den - 1, big_den)
        assert construct_states(m0, big).mu > 0


class TestConstructStates:
    def test_worked_example_with_pinned_mu(self):
        result = construct_states(F(2, 3), F(1, 3), mu=F(1, 10))
        assert result.branch is Branch.M0_LE_1
        assert result.a == F(9, 16)
        assert result.source.alpha == (F(81, 160), F(45, 160), F(22, 160), F(12, 160))
        assert result.target.alpha == (F(90, 160), F(30, 160), F(30, 160), F(10, 160))
        eps = epsilon_decompose(result.source, result.target)
        assert (eps.eps1, eps.eps2, eps.eps3) == (F(9, 160), F(6, 160), F(2, 160))
        assert compute_m(result.source, eps) == F(2, 3)
        assert compute_M(result.source, eps) == F(1, 3)

    def test_default_mu_is_half_the_bound_when_valid(self):
        assert construct_states(F(2, 3), F(1, 3)).mu == F(1, 10)

    def test_large_m0_branch(self):
        result = construct_states(F(3, 2), F(1, 2))
        assert result.branch is Branch.M0_GT_1
        assert result.a == F(4, 9)
        eps = epsilon_decompose(result.source, result.target)
        assert compute_m(result.source, eps) == F(3, 2)
        assert compute_M(result.source, eps) == F(1, 2)
        assert (eps.eps1, eps.eps2, eps.eps3) == (
            result.mu * result.a,
            F(3, 2) * result.mu * result.a,
            F(1, 2) * F(3, 2) * result.mu * result.a,
        )

    def test_boundary_m0_uses_small_branch(self):
        result = construct_states(F(1), F(1, 2))
        assert result.branch is Branch.M0_LE_1
        assert result.a == F(4, 9)

    @pytest.mark.parametrize("m0,big", [(F(0), F(1, 2)), (F(-1), F(1, 2)), (F(1), F(1)), (F(1), F(0)), (F(1), F(3, 2))])
    def test_domain_validation(self, m0, big):
        with pytest.raises(ValueError):
            construct_states(m0, big)

    def test_pinned_mu_must_verify(self):
        # mu = 1/5 is below the closed-form bound 5/24 for (1, 1/10) but
        # breaks the source ordering, so pinning it must fail loudly.
        with pytest.raises(ValueError, match="violates the construction"):
            construct_states(F(1), F(1, 10), mu=F(1, 5))
        with pytest.raises(ValueError, match="positive"):
            construct_states(F(1), F(1, 10), mu=F(0))

    def test_feasibility_matches_bound_order(self):
        # m0 > M0 here, so the constructed pair itself is not catalyzable.
        result = construct_states(F(2, 3), F(1, 3))
        assert analyze(result.source, result.target).verdict is Verdict.INFEASIBLE
        feasible = construct_states(F(1, 3), F(2, 3))
        assert analyze(feasible.source, feasible.target).verdict is Verdict.CATALYZABLE


@st.composite
def bound_targets(draw):
    m0_den = draw(st.integers(1, 24))
    m0 = F(draw(st.integers(1, 10 * m0_den)), m0_den)
    big_den = draw(st.integers(2, 24))
    big = F(draw(st.integers(1, big_den - 1)), big_den)
    return m0, big


class TestRoundTrip:
    @given(bound_targets())
    @settings(max_examples=200)
    def test_exact_round_trip(self, targets):
        m0, big = targets
        result = construct_states(m0, big)
        expected_branch = Branch.M0_LE_1 if m0 <= 1 else Branch.M0_GT_1
        assert result.branch is expected_branch
        eps = epsilon_decompose(result.source, result.target)
        assert (eps.eps1, eps.eps2, eps.eps3) == (
            result.mu * result.a,
            m0 * result.mu * result.a,
            big * m0 * result.mu * result.a,
        )
        assert compute_m(result.source, eps) == m0
        assert compute_M(result.source, eps) == big
        # The pair is catalyzable exactly when the prescribed bounds permit it.
        verdict = analyze(result.source, result.target).verdict
        assert (verdict is Verdict.CATALYZABLE) == (m0 <= big)


def first_verifying_halving(m0, big):
    """Reference search: mu = bound/2, bound/4, ... without a cap, until
    construct_states verifies the pinned mu."""
    mu = mu_admissible_bound(m0, big) / 2
    while True:
        try:
            return construct_states(m0, big, mu).mu
        except ValueError:
            mu /= 2


class TestMuSearch:
    @given(
        st.integers(1, 10**200),
        st.integers(1, 10**60),
        st.one_of(
            st.fractions(F(1, 1000), F(999, 1000), max_denominator=1000),
            st.integers(1, 60).map(lambda k: 1 - F(1, 10**k)),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_mu_as_the_uncapped_halving(self, m0_num, m0_den, big):
        m0 = F(m0_num, m0_den)
        assert construct_states(m0, big).mu == first_verifying_halving(m0, big)


def least_limit(m0, big):
    """L, the least of the module docstring's five limits on mu, from the
    target profile (h, q) alone."""
    h, q = (m0 / 2, m0 * m0 / 4) if m0 <= 1 else (F(1, 2), F(1, 4))
    return min(
        (1 - h) / (m0 + 2),
        (h - q) / ((2 * big + 1) * m0),
        1 - h / m0,
        (m0 * h - q) / m0**2,
        h * (1 - big) / (m0 * (1 + big)),
    )


class TestPinnedMu:
    @given(
        st.one_of(
            st.fractions(F(1, 100), 10, max_denominator=100),
            st.sampled_from([F(1, 10**60), F(10**60)]),
        ),
        st.one_of(
            st.fractions(F(1, 1000), F(999, 1000), max_denominator=1000),
            st.integers(1, 60).map(lambda k: 1 - F(1, 10**k)),
        ),
        st.one_of(
            st.sampled_from([F(1), 1 + F(1, 10**30), F(1, 2)]),
            st.integers(1, 2000).map(lambda k: F(k, 1000)),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_verifies_exactly_up_to_the_least_limit(self, m0, big, scale):
        limit = least_limit(m0, big)
        mu = scale * limit
        if mu <= limit:
            result = construct_states(m0, big, mu)
            assert result.mu == mu
            eps = epsilon_decompose(result.source, result.target)
            assert (compute_m(result.source, eps), compute_M(result.source, eps)) == (m0, big)
        else:
            with pytest.raises(ValueError) as raised:
                construct_states(m0, big, mu)
            assert str(raised.value) == (
                f"mu = {mu} violates the construction invariants for m0={m0}, M0={big}"
            )

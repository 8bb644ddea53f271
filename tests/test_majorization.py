from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcatalyst import (
    first_violated_index,
    is_majorized_by,
    locc_possible,
    lorenz_points,
    make_spectrum,
    partial_sums,
)

from support import spectra

F = Fraction

CAT_SOURCE = make_spectrum(["0.4", "0.4", "0.1", "0.1"])
CAT_TARGET = make_spectrum(["0.5", "0.25", "0.25", "0"])


class TestPartialSums:
    def test_examples(self):
        assert partial_sums([F(2, 5), F(2, 5), F(1, 10), F(1, 10)]) == (
            F(2, 5),
            F(4, 5),
            F(9, 10),
            F(1),
        )
        assert partial_sums([1, 0, 0, 0]) == (F(1), F(1), F(1), F(1))
        assert partial_sums([F(1, 4)] * 4) == (F(1, 4), F(1, 2), F(3, 4), F(1))

    def test_sorts_before_summing(self):
        assert partial_sums([F(1, 10), F(9, 10)]) == (F(9, 10), F(1))

    def test_negative_component(self):
        with pytest.raises(ValueError, match="nonnegative"):
            partial_sums([F(3, 2), F(-1, 2)])


class TestIsMajorizedBy:
    def test_uniform_below_point_mass(self):
        assert is_majorized_by([F(1, 4)] * 4, [1, 0, 0, 0])

    def test_blocked_pair(self):
        # Fails at the second partial sum: 4/5 > 3/4.
        assert not is_majorized_by(CAT_SOURCE.alpha, CAT_TARGET.alpha)
        assert first_violated_index(CAT_SOURCE.alpha, CAT_TARGET.alpha) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            is_majorized_by([F(1)], [F(1, 2), F(1, 2)])

    def test_total_mismatch(self):
        with pytest.raises(ValueError, match="total mismatch"):
            is_majorized_by([F(1, 2), F(1, 2)], [F(1, 2), F(1, 4)])

    @pytest.mark.parametrize(
        "a,b,message",
        [
            ([F(1)], [F(1, 2), F(1, 2)], "length mismatch"),
            ([F(1, 2), F(1, 2)], [F(1, 4), F(1, 4)], "total mismatch"),
        ],
    )
    def test_first_violated_index_checks_the_pair(self, a, b, message):
        # Both inputs are complete vectors; a shorter one is not a prefix.
        with pytest.raises(ValueError, match=message):
            first_violated_index(a, b)

    @given(spectra())
    def test_reflexive(self, s):
        assert is_majorized_by(s.alpha, s.alpha)

    @given(spectra())
    def test_uniform_and_point_mass_are_extremes(self, s):
        assert is_majorized_by([F(1, 4)] * 4, s.alpha)
        assert is_majorized_by(s.alpha, [F(1), F(0), F(0), F(0)])


def _transfer_chain(values: list[Fraction], moves: list[tuple[int, int, int]], unit: Fraction):
    """Apply moves (from_index, to_index, units); each move shifts mass toward
    the (weakly) larger component, so the result majorizes the input."""
    out = list(values)
    for i, j, k in moves:
        give, take = (i, j) if out[i] <= out[j] else (j, i)
        amount = min(F(k) * unit, out[give])
        out[give] -= amount
        out[take] += amount
    return out


@st.composite
def majorization_chains(draw):
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 40))
    cuts = sorted(draw(st.integers(0, d)) for _ in range(n - 1))
    bounds = [0, *cuts, d]
    base = [F(bounds[i + 1] - bounds[i], d) for i in range(n)]
    unit = F(1, d)
    moves = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 5))
    mid = _transfer_chain(base, draw(st.lists(moves, max_size=4)), unit)
    top = _transfer_chain(mid, draw(st.lists(moves, max_size=4)), unit)
    return base, mid, top


class TestPreorder:
    @given(majorization_chains())
    def test_chain_and_transitivity(self, chain):
        base, mid, top = chain
        assert is_majorized_by(base, mid)
        assert is_majorized_by(mid, top)
        assert is_majorized_by(base, top)

    @given(spectra(), st.permutations(range(4)), st.permutations(range(4)))
    def test_permutation_invariant(self, s, perm_a, perm_b):
        t = make_spectrum([F(1, 2), F(1, 4), F(1, 4), F(0)])
        shuffled_a = [s.alpha[i] for i in perm_a]
        shuffled_b = [t.alpha[i] for i in perm_b]
        assert is_majorized_by(shuffled_a, shuffled_b) == is_majorized_by(s.alpha, t.alpha)


class TestLoccPossible:
    def test_examples(self):
        assert not locc_possible(CAT_SOURCE, CAT_TARGET)
        assert locc_possible(make_spectrum([F(1, 4)] * 4), CAT_TARGET)
        assert locc_possible(CAT_SOURCE, CAT_SOURCE)


class TestLorenzPoints:
    def test_point_mass(self):
        assert lorenz_points([1, 0, 0, 0]) == [
            (F(0), F(0)),
            (F(1, 4), F(1)),
            (F(1, 2), F(1)),
            (F(3, 4), F(1)),
            (F(1), F(1)),
        ]

    def test_blocked_pair_source(self):
        assert lorenz_points(CAT_SOURCE.alpha) == [
            (F(0), F(0)),
            (F(1, 4), F(2, 5)),
            (F(1, 2), F(4, 5)),
            (F(3, 4), F(9, 10)),
            (F(1), F(1)),
        ]

    def test_uniform_is_diagonal(self):
        assert lorenz_points([F(1, 4)] * 4) == [
            (F(k, 4), F(k, 4)) for k in range(5)
        ]

    def test_requires_unit_total(self):
        with pytest.raises(ValueError, match="sum to 1"):
            lorenz_points([F(1, 2), F(1, 4)])

    @given(spectra())
    def test_nondecreasing_and_concave(self, s):
        points = lorenz_points(s.alpha)
        heights = [y for _, y in points]
        assert all(a <= b for a, b in zip(heights, heights[1:]))
        increments = [b - a for a, b in zip(heights, heights[1:])]
        assert increments == sorted(increments, reverse=True)
        assert increments == sorted(s.alpha, reverse=True)


def _reference_sums(values) -> tuple[Fraction, ...]:
    """Partial sums walked in plain Fractions, as the definition reads."""
    ordered = sorted((F(v) for v in values), reverse=True)
    if ordered and ordered[-1] < 0:
        raise ValueError(f"components must be nonnegative, got {ordered[-1]}")
    return tuple(accumulate(ordered))


def _reference_first_violated(a, b):
    sums_a, sums_b = _reference_sums(a), _reference_sums(b)
    if len(sums_a) != len(sums_b):
        raise ValueError(f"length mismatch: {len(sums_a)} vs {len(sums_b)}")
    if sums_a and sums_a[-1] != sums_b[-1]:
        raise ValueError(f"total mismatch: {sums_a[-1]} vs {sums_b[-1]}")
    for k, (x, y) in enumerate(zip(sums_a, sums_b), start=1):
        if x > y:
            return k
    return None


def _outcome(fn, *args):
    """The result, or the type and message of what ``fn`` raised."""
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# Denominators up to 10**7 (coprime ones included), a few negative numerators
# and plain ints, so both the lcm scaling and every error path are reached.
_COMPONENT = st.one_of(
    st.builds(F, st.integers(-10**5, 10**8), st.integers(1, 10**7)),
    st.builds(F, st.integers(0, 60), st.integers(1, 60)),
    st.integers(0, 2),
)


@st.composite
def vector_pairs(draw):
    """(a, b): b moves mass of a around (equal totals), or is drawn freely
    (total and length mismatches)."""
    a = draw(st.lists(_COMPONENT, max_size=8))
    if draw(st.booleans()):
        return a, draw(st.lists(_COMPONENT, max_size=8))
    b = [F(x) for x in a]
    for _ in range(draw(st.integers(0, 4)) if b else 0):
        i = draw(st.integers(0, len(b) - 1))
        j = draw(st.integers(0, len(b) - 1))
        share = F(draw(st.integers(0, 10**6)), 10**6 + draw(st.integers(0, 7)))
        amount = b[i] * share
        b[i] -= amount
        b[j] += amount
    return a, draw(st.permutations(b))


def test_integer_forms_are_read_through_one_base():
    # partial_sums and first_violated_index take the stored integer form of
    # any _Scaled value, naming no spectrum type of their own.
    import qcatalyst.majorization as majorization
    from qcatalyst.spectra import _Scaled

    assert majorization._Scaled is _Scaled
    assert {"AugmentedSpectrum", "CatalystSpectrum"}.isdisjoint(vars(majorization))


class TestAgainstFractionReference:
    @given(st.lists(_COMPONENT, max_size=8))
    @settings(max_examples=300)
    def test_partial_sums(self, values):
        assert _outcome(partial_sums, values) == _outcome(_reference_sums, values)

    @given(vector_pairs())
    @settings(max_examples=400)
    @example(pair=([], []))
    @example(pair=([F(1), F(0)], [F(1, 2), F(1, 2)]))  # violated at k = 1
    # Equal totals never differ at k = n, so k = n - 1 is the last index a
    # violation can reach.
    @example(pair=([F(3, 10)] * 3 + [F(1, 10)], [F(2, 5), F(1, 4), F(1, 5), F(3, 20)]))
    @example(pair=([F(1), F(0)], [F(1, 2), F(1, 4)]))  # total mismatch, k = 1 violated
    @example(pair=([F(1)], [F(1, 2), F(1, 4)]))  # length and total mismatch
    def test_first_violated_index(self, pair):
        a, b = pair
        expected = _outcome(_reference_first_violated, a, b)
        assert _outcome(first_violated_index, a, b) == expected
        if not isinstance(expected, tuple):
            assert is_majorized_by(a, b) == (expected is None)

    @pytest.mark.parametrize(
        "a,b,message",
        [
            ([F(-1, 10**7), F(1)], [F(1), F(0)], "components must be nonnegative, got -1/10000000"),
            ([F(1)], [F(3, 2), F(-1, 2)], "components must be nonnegative, got -1/2"),
            ([F(1, 3), F(2, 3)], [F(1)], "length mismatch: 2 vs 1"),
            ([F(1, 999983), F(0)], [F(1, 1000003), F(0)],
             "total mismatch: 1/999983 vs 1/1000003"),
        ],
    )
    def test_messages(self, a, b, message):
        assert _outcome(first_violated_index, a, b) == (ValueError, message)

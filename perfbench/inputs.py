"""Seeded input generator for the benchmark.

Everything is built from integer compositions, with the same meaning as the
test suite's ``random_star_pair``: a spectrum is a 4-part composition of a
denominator d, and a star pair applies integer slacks (e1, e2, e3) inside the
budget e1 + 2*e2 + e3 <= a2 - a3, e3 <= a4, so the target keeps the source's
order and every value is exact.  Nothing here imports the package under test
or the test suite: the program only ever sees the generated values.

Values are plain ``Fraction`` tuples, sorted descending.  ``as_text`` turns a
spectrum into the comma-separated flag form, either as reduced "num/den"
strings or, for the long-decimal pairs, as 30-digit decimal strings.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import NamedTuple, Optional

HALF = Fraction(1, 2)
DECIMAL_DIGITS = 30
DECIMAL_SCALE = 10**DECIMAL_DIGITS

Values = tuple[Fraction, ...]
Pair = tuple[Values, Values]


def composition4(rng: random.Random, total: int) -> tuple[int, int, int, int]:
    """Four nonnegative integers summing to ``total``."""
    cuts = sorted(rng.randint(0, total) for _ in range(3))
    return (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], total - cuts[2])


def _descending(parts) -> tuple[int, ...]:
    return tuple(sorted(parts, reverse=True))


def _over(parts, d: int) -> Values:
    return tuple(sorted((Fraction(x, d) for x in parts), reverse=True))


def _slacks(rng: random.Random, budget: int, a4: int, feasible_leaning: bool):
    """Integer slacks (e1, e2, e3) inside the star budget, as random_star_pair
    draws them."""
    if feasible_leaning:
        e2 = 1
        e1_cap = budget - 2
        e1 = rng.randint(e1_cap // 2, e1_cap) if e1_cap > 0 else 0
        e3_cap = min(a4, budget - 2 - e1)
        e3 = rng.randint((e3_cap + 1) // 2, e3_cap) if e3_cap > 0 else 0
    else:
        e2 = rng.randint(1, budget // 2)
        e1 = rng.randint(0, budget - 2 * e2)
        e3 = rng.randint(0, min(a4, budget - 2 * e2 - e1))
    return e1, e2, e3


def _apply(parts, e1: int, e2: int, e3: int) -> tuple[int, int, int, int]:
    a1, a2, a3, a4 = parts
    return (a1 + e1, a2 - e1 - e2, a3 + e2 + e3, a4 - e3)


def star_pair(
    rng: random.Random,
    min_denominator: int = 8,
    max_denominator: int = 60,
    feasible_leaning: bool = False,
    force_eps3_zero: bool = False,
) -> Pair:
    """(source, target) admitting a valid slack decomposition (eps2 > 0)."""
    while True:
        d = rng.randint(min_denominator, max_denominator)
        parts = _descending(composition4(rng, d))
        budget = parts[1] - parts[2]
        if budget < 2:
            continue
        e1, e2, e3 = _slacks(rng, budget, parts[3], feasible_leaning)
        if force_eps3_zero:
            e3 = 0
        return _over(parts, d), _over(_apply(parts, e1, e2, e3), d)


def decimal_star_pair(rng: random.Random, feasible_leaning: bool = False) -> Pair:
    """Star pair over 10**30: every component has a 30-digit decimal form."""
    return star_pair(rng, DECIMAL_SCALE, DECIMAL_SCALE, feasible_leaning)


def coprime_star_pair(rng: random.Random, feasible_leaning: bool = False) -> Pair:
    """Star pair whose source lives over d1 and whose slacks live over d2,
    with d1, d2 in [10**6, 10**7] and gcd(d1, d2) = 1.  The target's
    components then need denominators up to d1*d2, so no small common
    denominator exists for the pair."""
    while True:
        d1 = rng.randint(10**6, 10**7)
        d2 = rng.randint(10**6, 10**7)
        if math.gcd(d1, d2) != 1:
            continue
        parts = _descending(composition4(rng, d1))
        # Slack budget measured in units of 1/d2.
        budget = (parts[1] - parts[2]) * d2 // d1
        a4_cap = parts[3] * d2 // d1
        if budget < 2:
            continue
        e1, e2, e3 = _slacks(rng, budget, a4_cap, feasible_leaning)
        scaled = tuple(x * d2 for x in parts)
        moved = _apply(scaled, e1 * d1, e2 * d1, e3 * d1)
        return _over(scaled, d1 * d2), _over(moved, d1 * d2)


def random_spectrum(rng: random.Random, max_denominator: int = 60) -> Values:
    d = rng.randint(4, max_denominator)
    return _over(composition4(rng, d), d)


def locc_pair(rng: random.Random) -> Pair:
    """A pair convertible by plain LOCC: mass moves from the last component
    to the first, so every partial sum of the target is at least the
    source's."""
    while True:
        d = rng.randint(8, 60)
        parts = _descending(composition4(rng, d))
        if parts[3] < 1:
            continue
        delta = rng.randint(1, parts[3])
        moved = (parts[0] + delta, parts[1], parts[2], parts[3] - delta)
        return _over(parts, d), _over(moved, d)


def star_violated_pair(rng: random.Random) -> Pair:
    """The reverse of an LOCC pair: the largest coefficient shrinks, so the
    star pattern fails at eps1."""
    source, target = locc_pair(rng)
    return target, source


def ratio_bounds(source: Values, target: Values):
    """(m, M) of the interval rule for a star pair, or None when eps1 = 0.

    Used only to sort generated pairs into classes; the benchmark checks the
    program's own answers against the brute-force oracle, never against this.
    """
    a1, a2, a3, a4 = source
    e1 = target[0] - a1
    e2 = (a1 + a2) - (target[0] + target[1])
    e3 = a4 - target[3]
    if e1 == 0:
        return None
    terms = [(a2 - e1) / (a1 + e1), e2 / e1]
    if a3 + e3:
        terms.append((a4 - e3) / (a3 + e3))
    return max(terms), min((a3 + e3) / (a2 - e1), e3 / e2)


def catalyzable_pair(rng: random.Random) -> Pair:
    while True:
        pair = star_pair(rng, feasible_leaning=True)
        bounds = ratio_bounds(*pair)
        if bounds is not None and bounds[0] <= bounds[1]:
            return pair


def interval_infeasible_pair(rng: random.Random) -> Pair:
    """Star holds but m > M: with eps3 = 0 the upper bound M is 0."""
    return star_pair(rng, force_eps3_zero=True)


def as_text(values: Values, decimal: bool = False) -> list[str]:
    """Component strings: 30-digit decimals, or reduced "num/den"."""
    if decimal:
        out = []
        for v in values:
            scaled = v * DECIMAL_SCALE
            if scaled.denominator != 1:
                raise ValueError(f"{v} has no {DECIMAL_DIGITS}-digit decimal form")
            whole, frac = divmod(scaled.numerator, DECIMAL_SCALE)
            out.append(f"{whole}.{frac:0{DECIMAL_DIGITS}d}")
        return out
    return [f"{v.numerator}/{v.denominator}" for v in values]


def p_grid(p_interval) -> list[Fraction]:
    """Check points for one pair, shaped like acceptance criterion 5: the 20
    points k/38 over [1/2, 1], plus the exact interval endpoints, their
    neighbouring lattice points, and probes just outside the interval."""
    points = {Fraction(k, 38) for k in range(19, 39)}
    if p_interval is not None:
        low, high = p_interval
        for endpoint in (low, high):
            points.add(endpoint)
            scaled = endpoint * 38
            points.add(Fraction(math.floor(scaled), 38))
            points.add(Fraction(math.ceil(scaled), 38))
        below = low - min(Fraction(1, 997), low - HALF) / 2
        if HALF <= below < low:
            points.add(below)
        above = high + min(Fraction(1, 997), 1 - high) / 2
        if high < above <= 1:
            points.add(above)
    return sorted(points)


# --- agreement -------------------------------------------------------------

COPRIME_SHARE = 0.25


def agreement_pairs(seed: int):
    """Endless stream of star pairs: a quarter over coprime denominators near
    10**6..10**7, the rest small-denominator, half of every kind drawn
    feasible-leaning."""
    rng = random.Random(f"agreement-{seed}")
    while True:
        leaning = rng.random() < 0.5
        if rng.random() < COPRIME_SHARE:
            yield coprime_star_pair(rng, leaning)
        else:
            yield star_pair(rng, feasible_leaning=leaning)


# --- requests --------------------------------------------------------------

HOT_SET_SIZE = 8
HOT_SHARE = 0.5
REQUEST_MIX = (
    ("analyze", 0.52),
    ("check-locc", 0.10),
    ("validate", 0.12),
    ("construct", 0.10),
    ("lorenz", 0.08),
    ("malformed", 0.08),
)


class Request(NamedTuple):
    """One CLI call: argv, optional stdin document, and what to check."""

    kind: str
    argv: list
    stdin: Optional[str] = None
    pair: Optional[Pair] = None
    m0: Optional[Fraction] = None
    M0: Optional[Fraction] = None


def _request_pair(rng: random.Random) -> tuple[Pair, bool]:
    """A fresh pair and whether it is written as 30-digit decimals."""
    roll = rng.random()
    if roll < 0.3:
        return decimal_star_pair(rng, rng.random() < 0.5), True
    if roll < 0.5:
        return (random_spectrum(rng), random_spectrum(rng)), False
    return star_pair(rng, feasible_leaning=rng.random() < 0.5), False


def _pair_request(rng: random.Random, kind: str, pair: Pair, decimal: bool) -> Request:
    source, target = (as_text(v, decimal) for v in pair)
    use_stdin = rng.random() < 0.5
    document = {"source": source, "target": target}
    extra: list[str] = []
    if kind == "validate":
        if rng.random() < 0.5:
            p = Fraction(rng.randint(19, 38), 38)
            document["p"] = as_text((p,))[0]
            extra = ["--p", document["p"]]
        else:
            # Three components: the product spectrum has 12 entries and no
            # interval verdict applies.
            first = rng.randint(0, 20)
            second = rng.randint(0, 20 - first)
            catalyst = as_text(_over((first, second, 20 - first - second), 20))
            document["catalyst"] = catalyst
            extra = ["--catalyst", ",".join(catalyst)]
    if kind == "lorenz":
        if use_stdin:
            return Request(kind, ["lorenz"], json.dumps({"spectra": [source, target]}), pair)
        return Request(kind, ["lorenz", ",".join(source), ",".join(target)], None, pair)
    if use_stdin:
        return Request(kind, [kind], json.dumps(document), pair)
    return Request(
        kind, [kind, "--source", ",".join(source), "--target", ",".join(target)] + extra,
        None, pair,
    )


def _construct_request(rng: random.Random) -> Request:
    if rng.random() < 0.5:
        m0 = Fraction(rng.randint(1, 30), 30)  # branch m0 <= 1
    else:
        m0 = Fraction(rng.randint(31, 90), 30)  # branch m0 > 1
    n = rng.randint(2, 30)
    M0 = Fraction(rng.randint(1, n - 1), n)
    m0_text, M0_text = as_text((m0, M0))
    if rng.random() < 0.5:
        return Request("construct", ["construct"], json.dumps({"m0": m0_text, "M0": M0_text}),
                       m0=m0, M0=M0)
    return Request("construct", ["construct", "--m0", m0_text, "--M0", M0_text], m0=m0, M0=M0)


def _malformed_request(rng: random.Random) -> Request:
    """Input errors that the CLI must answer with exit 1."""
    source, target = (",".join(as_text(v)) for v in star_pair(rng))
    choice = rng.randrange(10)
    if choice == 0:
        argv, stdin = ["analyze", "--source", source.rsplit(",", 1)[0], "--target", target], None
    elif choice == 1:
        argv, stdin = ["analyze", "--source", "1/2,1/4,1/8,1/16", "--target", target], None
    elif choice == 2:
        argv, stdin = ["check-locc", "--source", "3/5,1/2,-1/10,0", "--target", target], None
    elif choice == 3:
        argv, stdin = ["analyze", "--source", "a,b,c,d", "--target", target], None
    elif choice == 4:
        argv, stdin = ["analyze"], '{"source": ["1/2", '
    elif choice == 5:
        argv, stdin = ["validate"], json.dumps({"source": source.split(",")})
    elif choice == 6:
        argv, stdin = ["validate", "--source", source, "--target", target,
                       "--p", "3/5", "--catalyst", "3/5,2/5"], None
    elif choice == 7:
        argv, stdin = ["construct", "--m0", "0", "--M0", "1/2"], None
    elif choice == 8:
        argv, stdin = ["validate", "--source", source, "--target", target, "--p", "3/2"], None
    else:
        argv, stdin = ["frobnicate", "--source", source], None
    return Request("malformed", argv, stdin)


def request_stream(seed: int):
    """Endless request mix; about half of the pair requests reuse a hot set
    of HOT_SET_SIZE pairs, the rest are unique."""
    rng = random.Random(f"requests-{seed}")
    hot = [_request_pair(rng) for _ in range(HOT_SET_SIZE)]
    kinds = [kind for kind, _ in REQUEST_MIX]
    weights = [weight for _, weight in REQUEST_MIX]
    while True:
        kind = rng.choices(kinds, weights)[0]
        if kind == "construct":
            yield _construct_request(rng)
        elif kind == "malformed":
            yield _malformed_request(rng)
        else:
            pair, decimal = hot[rng.randrange(HOT_SET_SIZE)] if rng.random() < HOT_SHARE \
                else _request_pair(rng)
            yield _pair_request(rng, kind, pair, decimal)


# --- sweep -----------------------------------------------------------------

SWEEP_DENOMINATORS = (1000, 1250, 1500, 1750, 2000)


def sweep_pairs(seed: int) -> list[tuple[str, Pair]]:
    """One pair of each class the sweep output distinguishes."""
    rng = random.Random(f"sweep-{seed}")
    return [
        ("catalyzable", catalyzable_pair(rng)),
        ("interval_infeasible", interval_infeasible_pair(rng)),
        ("star_violated", star_violated_pair(rng)),
        ("locc_possible", locc_pair(rng)),
    ]


def sweep_calls(seed: int):
    """Endless (class, pair, denominator) stream: every pair at every
    denominator once per round, in an order shuffled per round, so each
    round does the same amount of work whatever the seed."""
    combos = [(label, pair, d) for label, pair in sweep_pairs(seed) for d in SWEEP_DENOMINATORS]
    rng = random.Random(f"sweep-calls-{seed}")
    while True:
        rng.shuffle(combos)
        yield from combos

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nowcastsim.money import (MAX_CENTS, annual_to_monthly, apply_rate, cents, euros, has_cents,
                              round_div, weekly_to_monthly)


def half_away(q: Fraction) -> int:
    """The exact rational q rounded half away from zero."""
    n = math.floor(abs(q) + Fraction(1, 2))
    return n if q >= 0 else -n


def test_round_div_halves_away_from_zero():
    assert round_div(3, 2) == 2
    assert round_div(-3, 2) == -2
    assert round_div(5, 2) == 3
    assert round_div(-5, 2) == -3
    assert round_div(7, 3) == 2
    assert round_div(8, 3) == 3


def test_round_div_rejects_nonpositive_divisor():
    with pytest.raises(ValueError):
        round_div(1, 0)
    for d in (0, -12):
        with pytest.raises(ValueError):
            round_div(np.array([1, -1], dtype=np.int64), d)


@given(numerators=st.lists(st.integers(-10**12, 10**12), max_size=40),
       d=st.sampled_from([1, 7, 12, 52, 10000]))
def test_round_div_matches_exact_rationals(numerators, d):
    out = round_div(np.array(numerators, dtype=np.int64), d)
    assert out.dtype == np.int64
    assert out.tolist() == [half_away(Fraction(n, d)) for n in numerators]


def test_apply_rate_fixes_rate_to_four_places():
    assert apply_rate(0.30, 10000) == 3000
    assert apply_rate(0.85, 41200) == 35020
    # the rate is fixed to 1234/10000 before it is applied
    assert apply_rate(0.12344, 100000) == 12340
    # half a cent rounds away from zero
    assert apply_rate(0.0001, 5000) == 1
    assert apply_rate(0.0001, -5000) == -1


def test_cents_round_trip():
    assert cents(151.50) == 15150
    assert cents(202.99) == 20299
    assert cents(-6.235) == -624
    assert euros(20300) == 203.0


def test_weekly_to_monthly_uses_52_over_12():
    # 350.00/week -> 1516.67/month
    assert weekly_to_monthly(35000) == 151667
    assert weekly_to_monthly(20300) == round_div(20300 * 52, 12)


def test_annual_to_monthly():
    assert annual_to_monthly(120000) == 10000
    assert annual_to_monthly(100) == 8


def test_conversions_accept_arrays():
    weekly = np.array([35000, 20300, -20300], dtype=np.int64)
    assert weekly_to_monthly(weekly).tolist() == [weekly_to_monthly(int(c)) for c in weekly]
    annual = np.array([120000, 100, -100], dtype=np.int64)
    assert annual_to_monthly(annual).tolist() == [10000, 8, -8]


@given(rate=st.floats(0.0, 1.5, allow_nan=False),
       amounts=st.lists(st.integers(-10**9, 10**9), max_size=40))
def test_apply_rate_matches_exact_rationals(rate, amounts):
    out = apply_rate(rate, np.array(amounts, dtype=np.int64))
    assert out.dtype == np.int64
    fixed = Fraction(round(rate * 10000), 10000)
    assert out.tolist() == [half_away(fixed * a) for a in amounts]


# exact half-cent amounts: n/8 euros is exact in binary, and so is its x100
HALF_CENTS = st.integers(-10**7, 10**7).map(lambda n: n / 8.0)


@given(values=st.lists(st.floats(-1e9, 1e9, allow_nan=False) | HALF_CENTS, max_size=40))
# x 100 is the largest float below 0.5, which a float "+ 0.5" rounds up to 1
@example(values=[0.49999999999999994 / 100, -0.49999999999999994 / 100])
def test_cents_matches_exact_rationals(values):
    """cents is the float product euros x 100 rounded, exactly, half away
    from zero."""
    out = cents(np.array(values, dtype=np.float64))
    assert out.dtype == np.int64
    assert out.tolist() == [half_away(Fraction(v * 100.0)) for v in values]


def test_cents_array_rejects_non_finite():
    with pytest.raises(ValueError):
        cents(np.array([1.0, np.nan]))


def test_cents_rejects_amounts_past_exact_cents():
    """Past 2**53 cents a float64 holds no exact cent: such an amount raises
    instead of wrapping round int64."""
    below = (MAX_CENTS - 1) / 100.0  # the largest whole cent count float64 holds
    assert cents(np.array([below, -below])).tolist() == [MAX_CENTS - 1, -(MAX_CENTS - 1)]
    for amount in (MAX_CENTS / 100.0, -MAX_CENTS / 100.0, 1e17):
        with pytest.raises(ValueError, match="under 2\\*\\*53 cents"):
            cents(np.array([0.0, amount]))
        with pytest.raises(ValueError, match="under 2\\*\\*53 cents"):
            cents(amount)


def two_pass_cents(euros):
    """`cents` as first written, the reference for its one-pass form:
    `has_cents` takes the product euros x 100 and its magnitude, and the
    conversion takes both again."""
    ok = has_cents(euros)
    if not ok.all():
        raise ValueError(f"cannot convert {np.extract(~ok, euros)[0]:g} euros to cents: "
                         "an amount must be finite and under 2**53 cents in magnitude")
    scaled = np.asarray(euros, dtype=np.float64) * 100.0
    size = np.abs(scaled)
    whole = np.floor(size)
    return np.copysign(whole + (size - whole >= 0.5), scaled).astype(np.int64)


# a few cents either side of +-2**53 cents, and single amounts at the edges
NEAR_MAX = st.builds(lambda sign, d: sign * (MAX_CENTS + d) / 100.0, st.sampled_from([1, -1]),
                     st.integers(-4, 4))
EDGES = st.sampled_from([0.005, -0.005, 0.015, -0.015, 0.49999999999999994 / 100,
                         math.nextafter(MAX_CENTS / 100.0, 0), -MAX_CENTS / 100.0,
                         math.inf, -math.inf, math.nan, 1e308, -1e308, -0.0])
AMOUNTS = st.floats() | HALF_CENTS | NEAR_MAX | EDGES


@given(values=st.lists(AMOUNTS, max_size=12), scalar=st.booleans())
def test_cents_in_one_pass_matches_the_two_pass_formula(values, scalar):
    """The same int64 cents, or the same ValueError, for arrays and scalars."""
    amounts = values[0] if scalar and values else np.array(values, dtype=np.float64)
    outcomes = []
    for convert in (cents, two_pass_cents):
        try:
            out = convert(amounts)
            outcomes.append((out.dtype, out.tolist()))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]

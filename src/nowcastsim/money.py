"""Integer-cent money arithmetic.

All engine-internal money values are integer cents so that schedule lookups
and income identities are bit-exact. Euros appear only at the I/O boundary.
Each function works element by element on numpy input of any shape.
"""
import numpy as np

WEEKS_PER_YEAR = 52
MONTHS_PER_YEAR = 12
# every whole number of cents below this magnitude is a float64; not every one past it
MAX_CENTS = 2 ** 53


def round_div(n, d: int):
    """n / d rounded half away from zero, as int64. d must be positive."""
    if d <= 0:
        raise ValueError(f"divisor must be positive, got {d}")
    n = np.asarray(n, dtype=np.int64)
    q = (2 * np.abs(n) + d) // (2 * d)
    return np.where(n >= 0, q, -q)


def apply_rate(rate: float, c):
    """rate x c cents, with the rate fixed to four decimal places."""
    return round_div(int(round(rate * 10000)) * c, 10000)


def has_cents(euros):
    """True where the float product euros x 100 is finite and under MAX_CENTS
    in magnitude: the amounts that `cents` converts."""
    with np.errstate(over="ignore"):
        return np.abs(np.asarray(euros, dtype=np.float64) * 100.0) < MAX_CENTS


def cents(euros):
    """Euros to int64 cents: the float product euros x 100 rounded half away
    from zero. An amount outside `has_cents` raises ValueError."""
    with np.errstate(over="ignore"):
        scaled = np.asarray(euros, dtype=np.float64) * 100.0
    size = np.abs(scaled)
    if not (size < MAX_CENTS).all():  # has_cents, on the one product
        bad = np.extract(~(size < MAX_CENTS), euros)[0]
        raise ValueError(f"cannot convert {bad:g} euros to cents: "
                         "an amount must be finite and under 2**53 cents in magnitude")
    whole = np.floor(size)
    return np.copysign(whole + (size - whole >= 0.5), scaled).astype(np.int64)


def euros(c: int) -> float:
    return c / 100.0


def weekly_to_monthly(c):
    """Weekly cents to monthly cents via the uniform x52/12 factor."""
    return round_div(c * WEEKS_PER_YEAR, MONTHS_PER_YEAR)


def annual_to_monthly(c):
    return round_div(c, MONTHS_PER_YEAR)

"""Integer-cent money arithmetic.

All engine-internal money values are integer cents so that schedule lookups
and income identities are bit-exact. Euros appear only at the I/O boundary.
"""
import numpy as np

WEEKS_PER_YEAR = 52
MONTHS_PER_YEAR = 12


def round_div(n, d: int):
    """n / d rounded half away from zero. d must be positive.

    Accepts an int (returns an int) or an int64 array (returns an int64
    array, element by element the same as the scalar result)."""
    if d <= 0:
        raise ValueError(f"divisor must be positive, got {d}")
    if isinstance(n, np.ndarray):
        n = np.asarray(n, dtype=np.int64)
        q = (2 * np.abs(n) + d) // (2 * d)
        return np.where(n >= 0, q, -q)
    n = int(n)
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def apply_rate(rate: float, c):
    """rate x c cents, with the rate fixed to four decimal places; c is an
    int or an int64 array, as for round_div."""
    return round_div(int(round(rate * 10000)) * c, 10000)


def cents(euros):
    """Euros to integer cents, half away from zero. Accepts a float (returns
    an int) or a float array (returns an int64 array)."""
    scaled = euros * 100.0
    if isinstance(scaled, np.ndarray):
        if not np.isfinite(scaled).all():
            raise ValueError("cannot convert a non-finite amount to cents")
        return np.copysign(np.floor(np.abs(scaled) + 0.5), scaled).astype(np.int64)
    if scaled >= 0:
        return int(scaled + 0.5)
    return -int(-scaled + 0.5)


def euros(c: int) -> float:
    return c / 100.0


def weekly_to_monthly(c):
    """Weekly cents to monthly cents via the uniform x52/12 factor."""
    return round_div(c * WEEKS_PER_YEAR, MONTHS_PER_YEAR)


def annual_to_monthly(c):
    return round_div(c, MONTHS_PER_YEAR)

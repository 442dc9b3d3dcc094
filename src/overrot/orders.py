"""Total orders on periods and over-rotation pairs.

Three orders live here: the classical order on periods (odd numbers first,
then their doublings, quadruplings, ..., then powers of two descending), a
rank-encoded order on integers >= 3 used for no-division forcing, and the
order on over-rotation pairs (by ratio, ties broken on the multiplier of the
reduced form).
"""

from __future__ import annotations

from fractions import Fraction

from .patterns import OrpPair, _integer


def _sharkovsky_key(m: int) -> tuple:
    if m < 1:
        raise ValueError(f"periods start at 1, got {m}")
    e = 0
    while m % 2 == 0:
        m //= 2
        e += 1
    if m > 1:
        return (0, e, m)
    return (1, -e)


def sharkovsky_precedes(m: int, s: int) -> bool:
    """Strict period order: 3, 5, 7, ..., 2*3, 2*5, ..., 4, 2, 1."""
    if _integer(m, "period") == _integer(s, "period"):
        return False
    return _sharkovsky_key(m) < _sharkovsky_key(s)


def _star_rank(m: int) -> int:
    if m < 3:
        raise ValueError(f"the order on no-division periods starts at 3, got {m}")
    return 2 * m if m % 2 == 0 else 4 * m + 1


def star_precedes(m: int, s: int) -> bool:
    """Strict order on periods >= 3: 4, 6, 3, 8, 10, 5, 12, 14, 7, 16, ...

    Encoded by the rank 2m for even m and 4m+1 for odd m; smaller rank
    precedes.
    """
    if _integer(m, "period") == _integer(s, "period"):
        return False
    return _star_rank(m) < _star_rank(s)


def n_r(r: int, cap: int) -> set[int]:
    """{r} together with every s <= cap that r precedes in star_precedes."""
    _star_rank(_integer(r, "period"))
    return {r} | {s for s in range(3, _integer(cap, "cap") + 1) if star_precedes(r, s)}


def eta(m: int) -> OrpPair:
    """The weakest over-rotation pair carried by every period-m orbit.

    eta(2s) = (s-1, 2s) and eta(2n+1) = (n, 2n+1), defined for m >= 3.
    """
    if _integer(m, "period") < 3:
        raise ValueError(f"eta is defined for periods >= 3, got {m}")
    if m % 2 == 0:
        return OrpPair(m // 2 - 1, m)
    return OrpPair((m - 1) // 2, m)


def _check_pair(pair) -> OrpPair:
    try:
        p, q = pair
    except (TypeError, ValueError):
        raise ValueError(f"over-rotation pairs need two entries (p, q), got {pair!r}") from None
    if type(p) is not int or type(q) is not int:
        raise ValueError(f"over-rotation pairs need integer entries, got ({p!r}, {q!r})")
    if p < 1 or q < 2 or 2 * p > q:
        raise ValueError(f"over-rotation pairs need 0 < p/q <= 1/2, got ({p}, {q})")
    return OrpPair(p, q)


def orp_precedes(a, b) -> bool:
    """Strict order on over-rotation pairs: smaller ratio first; equal ratios
    compare their multiples of the reduced pair by the period order."""
    a = _check_pair(a)
    b = _check_pair(b)
    if a == b:
        return False
    ra = Fraction(a.p, a.q)
    rb = Fraction(b.p, b.q)
    if ra != rb:
        return ra < rb
    return sharkovsky_precedes(a.p // ra.numerator, b.p // rb.numerator)


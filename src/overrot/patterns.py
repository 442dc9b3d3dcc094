"""Cyclic interval patterns: parsing, symmetry, block structure, rotation data.

A pattern is a cyclic permutation pi of {1, ..., n} written in one-line
notation: entry i is pi(i), indices starting at 1.  Two patterns that are
mirror images of each other describe the same dynamics up to orientation, so
most of the library works with the `canonical` representative, the
lexicographically smaller of the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple


class PatternError(ValueError):
    """Raised for input that does not define a cyclic permutation."""


@dataclass(frozen=True)
class Pattern:
    """A cyclic permutation of {1, ..., n} in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        if n == 0:
            raise PatternError("empty pattern")
        if set(map(type, images)) != {int}:
            raise PatternError(f"entries must be integers, got {list(images)}")
        if sorted(images) != list(range(1, n + 1)):
            raise PatternError(
                f"not a bijection of {{1..{n}}}: {list(images)}"
            )
        x = images[0]
        length = 1
        while x != 1:
            x = images[x - 1]
            length += 1
        if length != n:
            raise PatternError(
                f"not a single cycle: point 1 has orbit length {length} of {n}"
            )

    @property
    def period(self) -> int:
        return len(self.images)

    def image(self, i: int) -> int:
        """pi(i) for a 1-indexed point i."""
        return self.images[i - 1]

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.images)

    def __repr__(self) -> str:
        return f'Pattern("{self}")'


class OrpPair(NamedTuple):
    """An over-rotation pair (p, q); q is the period, p counts half-turns."""

    p: int
    q: int


@dataclass(frozen=True)
class BlockDecomposition:
    """A division of {1..n} into consecutive blocks permuted by the pattern."""

    num_blocks: int
    block_size: int
    factor: Pattern


def parse_pattern(text: str) -> Pattern:
    """Parse one-line notation, e.g. "2 3 1"."""
    tokens = text.split()
    if not tokens:
        raise PatternError("empty input")
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise PatternError(
                f"expected whitespace-separated integers, got {tok!r}"
            ) from None
    return Pattern(tuple(values))


def format_pattern(pattern: Pattern) -> str:
    """One-line notation, the inverse of parse_pattern."""
    return str(pattern)


def parse_cycle(text: str) -> Pattern:
    """Parse cycle notation, e.g. "(1 4 6 2 3 5)"; parentheses optional."""
    cleaned = text.strip()
    if cleaned.startswith("(") and cleaned.endswith(")"):
        cleaned = cleaned[1:-1]
    tokens = cleaned.split()
    if not tokens:
        raise PatternError("empty input")
    try:
        cycle = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise PatternError(f"expected integers in cycle notation: {exc}") from None
    n = len(cycle)
    if sorted(cycle) != list(range(1, n + 1)):
        raise PatternError(f"not a bijection of {{1..{n}}}: cycle {cycle}")
    images = [0] * n
    for pos, point in enumerate(cycle):
        images[point - 1] = cycle[(pos + 1) % n]
    return Pattern(tuple(images))


def format_cycle(pattern: Pattern) -> str:
    """Cycle notation starting at 1, e.g. "(1 2 3)" for the pattern "2 3 1"."""
    cycle = [1]
    x = pattern.image(1)
    while x != 1:
        cycle.append(x)
        x = pattern.image(x)
    return "(" + " ".join(str(v) for v in cycle) + ")"


def _flip_images(images: tuple[int, ...]) -> tuple[int, ...]:
    n = len(images)
    return tuple(n + 1 - images[n - i] for i in range(1, n + 1))


def flip(pattern: Pattern) -> Pattern:
    """The mirror pattern i -> n+1 - pi(n+1-i)."""
    return Pattern(_flip_images(pattern.images))


def canonical(pattern: Pattern) -> Pattern:
    """The lexicographically smaller of the pattern and its mirror."""
    flipped = _flip_images(pattern.images)
    if flipped < pattern.images:
        return Pattern(flipped)
    return pattern


def block_structures(pattern: Pattern) -> list[BlockDecomposition]:
    """All decompositions into consecutive blocks mapped block-to-block.

    A decomposition splits {1..n} into k > 1 consecutive blocks of equal size
    m > 1 such that the pattern maps each block onto another; the induced
    permutation of blocks is the factor.  Returned with block sizes ascending.
    """
    images = pattern.images
    n = len(images)
    out = []
    for size in range(2, n // 2 + 1):
        if n % size:
            continue
        k = n // size
        sigma = []
        for j in range(k):
            targets = {(images[j * size + t] - 1) // size for t in range(size)}
            if len(targets) != 1:
                sigma = None
                break
            sigma.append(targets.pop() + 1)
        if sigma is not None:
            out.append(BlockDecomposition(k, size, Pattern(tuple(sigma))))
    return out


def has_division(pattern: Pattern) -> bool:
    """True when the two halves of {1..n} are swapped setwise (n even)."""
    images = pattern.images
    n = len(images)
    if n % 2:
        return False
    half = n // 2
    return all(images[i] > half for i in range(half))


def is_doubling(pattern: Pattern) -> bool:
    """True when the pattern permutes consecutive pairs {2i-1, 2i}."""
    return any(d.block_size == 2 for d in block_structures(pattern))


def doubling_of(factor: Pattern) -> Pattern:
    """The doubling of a pattern: pairs ride along the factor, first pair twisted.

    Point 2i-1 goes to 2*sigma(i)-1 and 2i to 2*sigma(i), except over i = 1
    where the pair lands swapped; the single swap welds the two lifted cycles
    into one cycle of twice the period.
    """
    k = factor.period
    images = [0] * (2 * k)
    for i in range(1, k + 1):
        s = factor.image(i)
        if i == 1:
            images[2 * i - 2] = 2 * s
            images[2 * i - 1] = 2 * s - 1
        else:
            images[2 * i - 2] = 2 * s - 1
            images[2 * i - 1] = 2 * s
    return Pattern(tuple(images))


def is_convergent(pattern: Pattern) -> bool:
    """True when the displacement signs form one rising run then one falling run.

    Equivalently, the pattern-linear model has exactly one fixed point.
    """
    falling = False
    for i, target in enumerate(pattern.images, 1):
        if target > i:
            if falling:
                return False
        else:
            falling = True
    return True


def over_rotation_pair(pattern: Pattern) -> OrpPair:
    """The over-rotation pair (p, n): p counts displacement sign changes / 2.

    For each point i the displacement pi(i) - i has a sign; p is half the
    number of points where the sign differs from the sign at the image point.
    The pair is not reduced; use over_rotation_number for the ratio.
    """
    images = pattern.images
    n = len(images)
    if n < 2:
        raise PatternError("over-rotation data needs period at least 2")
    changes = 0
    for i, target in enumerate(images, 1):
        rising = target > i
        rising_next = images[target - 1] > target
        if rising != rising_next:
            changes += 1
    return OrpPair(changes // 2, n)


def over_rotation_number(pattern: Pattern) -> Fraction:
    """The over-rotation number p/q in lowest terms, in (0, 1/2]."""
    pair = over_rotation_pair(pattern)
    return Fraction(pair.p, pair.q)


def stefan(period: int) -> Pattern:
    """The unimodal spiral pattern of odd period 2n+1.

    Point 1 maps to n+1; points 2..n+1 map to 2n+3-i and points n+2..2n+1 to
    2n+2-i, so the orbit spirals outward alternating sides, e.g. period 5
    gives "3 5 4 2 1".
    """
    if period < 3 or period % 2 == 0:
        raise PatternError(f"spiral patterns need an odd period >= 3, got {period}")
    n = (period - 1) // 2
    images = [0] * period
    images[0] = n + 1
    for i in range(2, n + 2):
        images[i - 1] = 2 * n + 3 - i
    for i in range(n + 2, 2 * n + 2):
        images[i - 1] = 2 * n + 2 - i
    return Pattern(tuple(images))


def classify(pattern: Pattern) -> dict:
    """Classification record with the frozen key set used by the CLI."""
    decompositions = block_structures(pattern)
    record = {
        "period": pattern.period,
        "convergent": is_convergent(pattern),
        "division": has_division(pattern),
        "doubling": any(d.block_size == 2 for d in decompositions),
        "block_sizes": [d.block_size for d in decompositions],
        "orp": None,
        "rho": None,
    }
    if pattern.period >= 2:
        pair = over_rotation_pair(pattern)
        rho = Fraction(pair.p, pair.q)
        record["orp"] = [pair.p, pair.q]
        record["rho"] = f"{rho.numerator}/{rho.denominator}"
    return record

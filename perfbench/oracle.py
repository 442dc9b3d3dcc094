"""Pattern facts computed from their definitions, independently of overrot.

The benchmark generates its inputs and checks the library's outputs with
these functions, so a check never trusts the code it is checking.  A pattern
is a tuple of images: entry i-1 is pi(i).
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def mirror(images: tuple[int, ...]) -> tuple[int, ...]:
    """The pattern conjugated by the reflection x -> n+1-x."""
    n = len(images)
    return tuple(n + 1 - images[n - i] for i in range(1, n + 1))


def is_cyclic(images: tuple[int, ...]) -> bool:
    """True when the images form one cycle through all of 1..n."""
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        return False
    x, length = images[0], 1
    while x != 1:
        x, length = images[x - 1], length + 1
    return length == n


def is_canonical(images: tuple[int, ...]) -> bool:
    """True for a cyclic pattern no larger than its mirror, lexicographically."""
    return is_cyclic(images) and images <= mirror(images)


def canonical_patterns(n: int) -> list[tuple[int, ...]]:
    """Every canonical cyclic pattern of period n, in lexicographic order."""
    out = []
    for rest in itertools.permutations(range(2, n + 1)):
        cycle = (1,) + rest
        images = [0] * n
        for i in range(n):
            images[cycle[i] - 1] = cycle[(i + 1) % n]
        images = tuple(images)
        if images <= mirror(images):
            out.append(images)
    return sorted(out)


def fixed_point_count(images: tuple[int, ...]) -> int:
    """Fixed points of the connect-the-dots map: sign changes of pi(i) - i."""
    signs = [target > i for i, target in enumerate(images, 1)]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def is_convergent(images: tuple[int, ...]) -> bool:
    return fixed_point_count(images) == 1


def orp_pair(images: tuple[int, ...]) -> tuple[int, int]:
    """(p, n): p counts the points where the orbit turns from rising to falling."""
    p = sum(
        1
        for x, fx in enumerate(images, 1)
        if fx > x and images[fx - 1] < fx
    )
    return p, len(images)


def is_doubling(images: tuple[int, ...]) -> bool:
    """True when the pairs {2i-1, 2i} are mapped onto pairs."""
    n = len(images)
    if n % 2:
        return False
    return all(
        (images[2 * i] + 1) // 2 == (images[2 * i + 1] + 1) // 2
        for i in range(n // 2)
    )


def p_linear(images: tuple[int, ...], x: Fraction) -> Fraction:
    """The connect-the-dots map of the pattern at x in [1, n]."""
    n = len(images)
    i = min(int(x), n - 1)
    return images[i - 1] + (images[i] - images[i - 1]) * (x - i)


def orbit_pattern(images: tuple[int, ...], points) -> tuple[int, ...] | None:
    """The pattern of a point set under the pattern's map, or None when the
    map does not permute the set."""
    ranks = {x: r for r, x in enumerate(sorted(points), 1)}
    out = []
    for x in sorted(points):
        y = p_linear(images, x)
        if y not in ranks:
            return None
        out.append(ranks[y])
    return tuple(out)

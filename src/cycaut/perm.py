"""Permutations on coordinate sets with cycle-notation I/O.

Coordinates are 0-based internally; all cycle notation is 1-based.
Composition is (a * b)(i) = a(b(i)), i.e. b applies first.  When acting
on words, the bit at coordinate i moves to coordinate p(i), which makes
the full cycle (1,2,...,n) exactly the right cyclic shift.

Each permutation is checked once: `Permutation(...)` and `parse_cycles`
check input from outside the package, and `Permutation._trusted` wraps,
unsorted, a permutation the package builds, which is one by construction.

Each permutation's moved points, `moved`, are found once: by one scan of
its images on first use, or given exactly by the primitive that built it
(`_trusted` takes them), as the layouts of `cycaut.construct` do, which
read them off the small permutation they lift.  They are not part of the
value: equality, hashing and repr read the images alone.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from operator import ne

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _inv(a: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of an image tuple."""
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


@dataclass(frozen=True, slots=True)
class Permutation:
    """Bijection on {0, ..., degree-1}, stored as the tuple of images."""

    images: tuple[int, ...]
    # `moved` once known: given to `_trusted`, or found on first use
    _moved: tuple[int, ...] | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("images are not a permutation")

    @classmethod
    def _trusted(cls, images: tuple[int, ...], moved: tuple[int, ...] | None = None) -> Permutation:
        """Wrap images that are a permutation by construction, unsorted,
        with its moved points when the caller knows them exactly."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        object.__setattr__(p, "_moved", moved)
        return p

    @property
    def moved(self) -> tuple[int, ...]:
        """The points moved, in increasing order, found by one scan of the
        images on first use unless `_trusted` was given them."""
        moved = self._moved
        if moved is None:
            points = range(len(self.images))
            moved = tuple(itertools.compress(points, map(ne, self.images, points)))
            object.__setattr__(self, "_moved", moved)
        return moved

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls._trusted(tuple(range(degree)), ())

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __mul__(self, other: Permutation) -> Permutation:
        """Composition self(other(i)); other applies first."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        img = self.images
        return Permutation._trusted(tuple(map(img.__getitem__, other.images)))

    def inverse(self) -> Permutation:
        return Permutation._trusted(_inv(self.images))

    def __pow__(self, e: int) -> Permutation:
        if e < 0:
            return self.inverse() ** (-e)
        acc = Permutation.identity(self.degree)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def apply_to_bits(self, bits: int) -> int:
        """Move the bit at coordinate i to coordinate images[i]."""
        out = 0
        img = self.images
        while bits:
            i = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            out |= 1 << img[i]
        return out

    def __str__(self) -> str:
        return format_cycles(self)

    def __repr__(self) -> str:
        return f"parse_cycles({format_cycles(self)!r}, {self.degree})"


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint cycles in 1-based notation; "()" is the identity.
    Points are written in ASCII digits alone: no sign, underscore or other
    script's digit, though `int` reads them."""
    s = "".join(text.split())
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    images = list(range(degree))
    seen: set[int] = set()
    pos = 0
    if not s:
        raise ValueError("empty permutation text")
    while pos < len(s):
        m = _CYCLE_RE.match(s, pos)
        if not m:
            raise ValueError(f"bad cycle notation near {s[pos:]!r}")
        pos = m.end()
        body = m.group(1)
        if not body:
            continue
        texts = body.split(",")
        if not all(t.isascii() and t.isdigit() for t in texts):
            raise ValueError(f"bad cycle {m.group(0)!r}")
        points = [int(t) for t in texts]
        for pt in points:
            if not 1 <= pt <= degree:
                raise ValueError(f"point {pt} out of range 1..{degree}")
            if pt - 1 in seen:
                raise ValueError(f"repeated point {pt}")
            seen.add(pt - 1)
        for a, b in zip(points, points[1:]):
            images[a - 1] = b - 1
        images[points[-1] - 1] = points[0] - 1
    return Permutation(tuple(images))


def format_cycles(p: Permutation) -> str:
    """Disjoint cycles sorted by smallest moved point, fixed points
    omitted, identity rendered as "()".  1-based, no spaces.  Raises
    ValueError on images that are not a permutation, which only a wrong
    `Permutation._trusted` wrap can hold: no cycle has more points than
    the degree."""
    img = p.images
    seen: set[int] = set()
    out = []
    for i in range(len(img)):
        if i in seen or img[i] == i:
            continue
        cycle = [i]
        j = img[i]
        while j != i:
            if len(cycle) == len(img):
                raise ValueError("images are not a permutation")
            seen.add(j)
            cycle.append(j)
            j = img[j]
        out.append("(" + ",".join(str(c + 1) for c in cycle) + ")")
    return "".join(out) if out else "()"

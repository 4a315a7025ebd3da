"""Finitely generated permutation groups via a deterministic
Schreier-Sims stabilizer chain.

The chain is a list of levels.  Level i holds a base point, the
generators assigned to levels <= i that fix the bases of levels < i, the
orbit of the base point under those generators, and one explicit
transversal permutation (with its inverse and a mask that holds the
points it moves) per orbit point.  Group order is the exact product of
orbit sizes, carried as a Python int, so orders far beyond 64 bits are
fine.

Everything is deterministic: base points are chosen greedily as the
smallest point moved by the generator that opens a level, orbits grow in
a fixed exploration order, and transversal representatives are assigned
write-once.

Schreier generators are sifted incrementally, pair by pair, and no pair
is examined twice.  A level keeps one counter per generator: the length
of the prefix of its orbit order already paired with that generator.
The orbit order only grows at its end, so the pairs done for a generator
are always such a prefix.

A Schreier generator sigma = u_{s(p)}^-1 s u_p of level i is skipped
when it equals a stored generator, that is, a sifted residue; one set
holds them for the whole chain.  A stored generator is a generator of
every level from the one it was ingested at down to the one where its
sift got stuck, and it fixes the bases of the levels before that one and
moves the base of that one.  sigma fixes the bases of levels 0..i, so a
stored generator equal to it got stuck below level i.  If it was
ingested at or above level i+1, it is a generator of level i+1;
otherwise sigma fixes the bases down to the level it was ingested at,
and its sift from level i+1 passes them unchanged and reaches that
level, of which it is a generator.  The levels below i are complete
whenever level i's pairs are sifted, so either way sigma would sift to
the identity.

Before composing sigma, a cheaper test applies: when s fixes p and moves
no point that u_p moves, s commutes with u_p, and sigma is s itself, a
stored generator.  Each generator carries a mask of the points it moves,
computed once, and each transversal the union of the masks of the
generators it is a product of, which holds every point it moves; the
test asks that s fixes p and that the masks of s and u_p are disjoint.
Its simplest case is the pair (s, base) of an s that fixes the base,
where u_base is the identity.
The other pairs of such an s are not redundant: for <(1,2,3,4), (2,3)> =
S_4 at base 1, the pairs of (2,3) alone would give a stabilizer of order
2, not 6.  Both skips drop only pairs whose sift would find nothing, so
the chain is the same with or without them.

When s fixes p but shares moved points with u_p, sigma = u_p^-1 s u_p is
a conjugate of s: it moves exactly the points u_p^-1(x) for x moved by
s, and sends each to u_p^-1(s(x)).  For a sparse s, one that moves few
points, these pairs are read off u_p^-1 at the moved points of s and at
their images, and they decide exactly whether sigma is a stored
generator: such a generator moves as many points as s, so it is sparse
too, and the chain keeps every sparse stored generator in a dict keyed
by its smallest moved point and that point's image, with the number of
points it moves.  A candidate under sigma's key that moves as many
points and agrees with sigma at sigma's moved points is sigma.  Only
when none does is sigma written out, into a copy of the identity at its
moved points, and sifted; it is not the identity, being a conjugate of
s.  Each level keeps, beside its generators, two itemgetters per sparse
one, over its moved points and over their images, and the number it
moves.  Looking sigma up in `stored` instead would cost a tuple of n
points and its hash per pair, and on the n = 186 block-rows group 14,445
of the 14,807 such pairs are stored generators: the build takes about 80
ms that way and 70 ms with the dict (medians of 84 builds, CPython 3.11,
2 shared vCPUs).

Sparse means that at most a quarter of the points move.  The look-up
costs time in proportion to the m points s moves; writing sigma out
costs a copy of the identity, m assignments and a tuple of n, against
the two compositions it replaces.  That breaks even near m = n/2 for n =
31 to 500, and the rule stays well below it: at a quarter it is 20 to
50% faster (at n = 186: 3.1 against 5.8 microseconds at m = 46; CPython
3.11, 2 shared vCPUs).  The rule leaves every chain of degree < 8 dense,
and all of GL(r, 2) on the 2^r - 1 nonzero vectors, whose non-identity
elements move at least 2^(r-1) of them; the per-column generators of the
block rows, k of n = 31k points, are sparse.

A pass over a level's pairs returns as soon as it finds a residue, and
the level is passed over again once the deeper levels have taken the
residue in; the generators it had finished by then are still paired with
the whole orbit unless the orbit grew.  Each level records how far a
pass got (`_Level.settled`), and the next pass starts there when the
orbit has the same length.  On the n = 186 group this skips 118,749
look-ups of finished generators in 5,023 passes.

`sample` multiplies one drawn transversal per level into acc, and acc *
u differs from acc only at the points u moves, which all lie in the mask
of u.  When that mask holds at most a quarter of the points, `sample`
writes acc at the mask's points alone, from a per-level map, filled as
points are drawn, of those points and an itemgetter of their images
under u.  Other transversals are composed on all points, and acc stays a
tuple until the first such write, so a chain whose masks are all large
pays one mask count per level.  `random_element` serves the
chain-membership benchmark, whose set-up draws 500 members of the n =
186 group: 300 draws of it take 39 ms instead of 81 ms.  On chains whose
masks are all large the count costs 7% for GL(7, 2) and GL(8, 2) and 20%
for S_31, where a composition is short (minima of six in-process rounds,
CPython 3.11, 2 shared vCPUs).

`block_order` finds the exact order of many large groups without a
chain of their degree.  Split the points 0..n-1 into the c residue
classes mod c, each of size k = n/c.  When every generator maps classes
onto classes, the group G acts on the classes, with image G^D (the block
action) and kernel K, so |G| = |G^D| * |K|, and K lies inside the product
of the symmetric groups Sym(B) of the classes B.  When some generators
that move the points of one class B only generate all of Sym(B), then G
contains Sym(B), and so its conjugates Sym(g(B)) for every g in G.  When
one of those generators is a transposition, whether they generate
Sym(B) is read off the graph of its conjugates, without a chain (see
`_generates_symmetric`); the constructions supply (1,2) and a k-cycle,
so the length-1922 claim needs no degree-62 chain.  Once these classes
cover all c, K is the whole product, |K| = (k!)^c, and only the
degree-c chain of G^D is left to build (Seress, Permutation Group
Algorithms, 2003, on block systems and kernels).  The word matrices of
the block-rows and residue-rows constructions are such systems: their
rows are permuted freely within each column, and the columns are the
classes mod the number of columns (or mod the number of rows).

`exact_order` is the one order path for verification: `block_order`
when it applies, else a `PermGroup` chain of the full degree.

`count_and_sift` reduces a stream of image tuples to generators in one
loop, for `filter_generators` and for brute force alike: it sifts each
tuple into one chain until the kept ones generate S_n, and from then on
only counts, in C.
"""

from __future__ import annotations

import itertools
from math import factorial
from operator import itemgetter, ne
from random import Random

from .perm import Permutation, _inv


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Composition a(b(i)); b applies first.

    Needs degree >= 2: itemgetter returns a scalar for one index and
    raises for none.  A chain of degree < 2 has no levels, so it never
    composes.
    """
    return itemgetter(*b)(a)


def _support(a: tuple[int, ...], identity: tuple[int, ...]) -> int:
    """A mask of the points a moves, one byte per point, nonzero where a
    moves it: two masks are disjoint iff their bitwise and is 0."""
    return int.from_bytes(bytes(map(ne, a, identity)), "little")


def _sparse_moves(a: tuple[int, ...], identity: tuple[int, ...]) -> tuple[int, ...] | None:
    """The points a moves, in increasing order, when they are at most a
    quarter of the degree, which is when the chain handles a by its moved
    points (see the module docstring); else None."""
    moved = tuple(itertools.compress(identity, map(ne, a, identity)))
    return moved if 4 * len(moved) <= len(identity) else None


class _Level:
    __slots__ = (
        "base", "gens", "gen_moves", "orbit", "orbit_order", "pending", "scanned", "paired",
        "settled", "transversal_moves",
    )

    def __init__(self, base: int, identity: tuple[int, ...]):
        self.base = base
        # (g, g^-1, `_support` of g)
        self.gens: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
        # per gen: itemgetters of its moved points and of their images, and
        # how many points it moves, or None when it is not sparse (see
        # `_sparse_moves`)
        self.gen_moves: list[tuple[itemgetter, itemgetter, int] | None] = []
        # point -> (u, u^-1, mask), u(base) = point; the mask is the union
        # of the supports of the generators u is a product of, so it holds
        # every point u moves
        self.orbit = {base: (identity, identity, 0)}
        self.orbit_order = [base]
        self.pending = [base]
        self.scanned = 0  # gens already applied to every settled orbit point
        self.paired: list[int] = []  # per gen: orbit_order prefix already sifted
        # (length L of orbit_order, count c): the first c gens are paired
        # with the first L orbit points, so a pass may start at gen c
        self.settled = (0, 0)
        # orbit point p -> (the points of the mask of u_p, an itemgetter of
        # their images), for the sparse masks `sample` has drawn
        self.transversal_moves: dict[int, tuple[tuple[int, ...], itemgetter]] = {}


class _Chain:
    def __init__(self, degree: int):
        self.degree = degree
        self.identity = tuple(range(degree))
        self.levels: list[_Level] = []
        self.stored: set[tuple[int, ...]] = set()  # every generator of every level
        # the sparse ones, keyed by (smallest moved point, its image), each
        # with the number of points it moves
        self.sparse_stored: dict[tuple[int, int], list[tuple[int, tuple[int, ...]]]] = {}
        self.sifted = 0  # Schreier generators sifted so far

    def extend(self, gens) -> None:
        """Add generators and re-establish the stabilizer-chain invariant."""
        dirty = False
        for g in gens:
            if g == self.identity:
                continue
            residue, stuck = self._sift(g, 0)
            if residue == self.identity:
                continue
            self._ingest(residue, 0, stuck)
            dirty = True
        if dirty:
            self._process()

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.orbit)
        return n

    def contains(self, g: tuple[int, ...]) -> bool:
        residue, _ = self._sift(g, 0)
        return residue == self.identity

    def sample(self, rng: Random) -> tuple[int, ...]:
        acc = self.identity
        degree = self.degree
        for lvl in self.levels:
            point = lvl.orbit_order[rng.randrange(len(lvl.orbit_order))]
            if point == lvl.base:
                continue
            u, _, mask = lvl.orbit[point]
            if 4 * mask.bit_count() > degree:
                acc = _mul(acc, u)
                continue
            # acc * u differs from acc only at the points u moves, all in its mask
            moves = lvl.transversal_moves.get(point)
            if moves is None:
                points = tuple(itertools.compress(self.identity, mask.to_bytes(degree, "little")))
                moves = lvl.transversal_moves[point] = (points, itemgetter(*map(u.__getitem__, points)))
            if type(acc) is tuple:
                acc = list(acc)
            points, images = moves
            for i, x in zip(points, images(acc)):
                acc[i] = x
        return tuple(acc)

    def _sift(self, g, start: int):
        """Reduce g by transversal elements; returns (residue, stuck level).

        The residue fixes the bases of all levels before the stuck level.
        Membership holds iff the residue is the identity (stuck == len).
        """
        levels = self.levels
        for i in range(start, len(levels)):
            lvl = levels[i]
            base = lvl.base
            p = g[base]
            if p != base:
                entry = lvl.orbit.get(p)
                if entry is None:
                    return g, i
                g = _mul(entry[1], g)
        return g, len(levels)

    def _ingest(self, g, first: int, stuck: int) -> int:
        """Record g as a generator of levels first..stuck, opening a new
        level when g sifted through the whole chain."""
        if stuck == len(self.levels):
            base = min(i for i in range(self.degree) if g[i] != i)
            self.levels.append(_Level(base, self.identity))
        gen = (g, _inv(g), _support(g, self.identity))
        self.stored.add(g)
        moves = None
        moved = _sparse_moves(g, self.identity)
        if moved is not None:
            at = itemgetter(*moved)
            images = at(g)
            moves = (at, itemgetter(*images), len(moved))
            self.sparse_stored.setdefault((moved[0], images[0]), []).append((len(moved), g))
        for j in range(first, stuck + 1):
            lvl = self.levels[j]
            lvl.gens.append(gen)
            lvl.gen_moves.append(moves)
            lvl.paired.append(0)
        return stuck

    def _process(self) -> None:
        i = len(self.levels) - 1
        while i >= 0:
            self._close_orbit(i)
            nxt = self._sift_new_pairs(i)
            i = i - 1 if nxt is None else nxt

    def _close_orbit(self, i: int) -> None:
        lvl = self.levels[i]
        gens = lvl.gens
        orbit, order, pending = lvl.orbit, lvl.orbit_order, lvl.pending
        if lvl.scanned < len(gens):
            new = gens[lvl.scanned :]
            lvl.scanned = len(gens)
            for p in list(order):
                up, upinv, up_mask = orbit[p]
                for g, ginv, g_support in new:
                    q = g[p]
                    if q not in orbit:
                        orbit[q] = (_mul(g, up), _mul(upinv, ginv), g_support | up_mask)
                        order.append(q)
                        pending.append(q)
        while pending:
            p = pending.pop()
            up, upinv, up_mask = orbit[p]
            for g, ginv, g_support in gens:
                q = g[p]
                if q not in orbit:
                    orbit[q] = (_mul(g, up), _mul(upinv, ginv), g_support | up_mask)
                    order.append(q)
                    pending.append(q)

    def _sift_new_pairs(self, i: int):
        """Sift unprocessed Schreier generators of level i.  On finding a
        residue, ingest it and return the deepest level it reached."""
        lvl = self.levels[i]
        identity = self.identity
        stored = self.stored
        sparse_stored = self.sparse_stored
        orbit = lvl.orbit
        order = lvl.orbit_order
        paired = lvl.paired
        gens = lvl.gens
        end = len(order)
        settled_end, first = lvl.settled
        for gi in range(first if settled_end == end else 0, len(gens)):
            s, _, s_support = gens[gi]
            start = paired[gi]
            if start == end:
                continue
            paired[gi] = end
            moves = lvl.gen_moves[gi]
            for k in range(start, end):
                p = order[k]
                sp = s[p]
                up, upinv, up_mask = orbit[p]
                if sp == p and not s_support & up_mask:
                    continue  # the Schreier generator is s, a stored generator
                if sp == p and moves is not None:
                    # sigma = u_p^-1 s u_p moves the points u_p^-1(x) for x
                    # moved by s, and sends each to u_p^-1(s(x))
                    at, to, m = moves
                    points, images = at(upinv), to(upinv)
                    if any(
                        mt == m and itemgetter(*points)(t) == images
                        for mt, t in sparse_stored.get(min(zip(points, images)), ())
                    ):
                        continue  # sigma is a stored generator
                    sig = list(identity)
                    for x, y in zip(points, images):
                        sig[x] = y
                    sigma = tuple(sig)
                else:
                    sigma = _mul(orbit[sp][1], _mul(s, up))
                    if sigma == identity or sigma in stored:
                        continue
                self.sifted += 1
                residue, stuck = self._sift(sigma, i + 1)
                if residue == identity:
                    continue
                paired[gi] = k + 1
                lvl.settled = (end, gi)
                return self._ingest(residue, i + 1, stuck)
        lvl.settled = (end, len(gens))
        return None


class PermGroup:
    """Immutable permutation group with exact order and membership."""

    def __init__(self, generators, degree: int | None = None):
        generators = list(generators)
        if degree is None:
            if not generators:
                raise ValueError("degree is required for an empty generator list")
            degree = generators[0].degree
        if any(g.degree != degree for g in generators):
            raise ValueError("generators have mixed degrees")
        self.degree = degree
        self.generators = tuple(generators)
        self._chain = _Chain(degree)
        self._chain.extend(g.images for g in generators)
        self._order = self._chain.order()

    def order(self) -> int:
        return self._order

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        return self._chain.contains(p.images)

    __contains__ = contains

    def random_element(self, seed: int) -> Permutation:
        """Uniform element, deterministic per seed: a product of uniformly
        chosen transversal representatives down the chain, and so a
        permutation by construction."""
        return Permutation._trusted(self._chain.sample(Random(seed)))

    def base_points(self) -> list[int]:
        return [lvl.base for lvl in self._chain.levels]

    def orbit_sizes(self) -> list[int]:
        """Basic orbit sizes, one per base point; their product is the order."""
        return [len(lvl.orbit) for lvl in self._chain.levels]

    def __repr__(self) -> str:
        return f"<PermGroup degree={self.degree} order={self._order}>"


def exact_order(generators, degree: int) -> tuple[int, dict]:
    """Exact order of the group the permutations generate, and how it
    was found: by `block_order` when it applies, else by a chain of the
    full degree, whose shape and cost the details give: the number of
    strong generators it stores and of Schreier generators it sifted."""
    generators = list(generators)
    found = block_order(generators, degree)
    if found is not None:
        return found
    group = PermGroup(generators, degree)
    return group.order(), {
        "path": "chain",
        "base_len": len(group.base_points()),
        "orbit_sizes": group.orbit_sizes(),
        "strong_generators": len(group._chain.stored),
        "schreier_sifted": group._chain.sifted,
    }


def block_order(generators, degree: int) -> tuple[int, dict] | None:
    """Exact order of <generators> through a residue-class block system
    (see the module docstring), or None when no system mod c, 1 < c <
    degree, meets the conditions.  The details name the classes, their
    size and the order of the block action."""
    gens = [g.images for g in generators]
    if any(len(g) != degree for g in gens):
        raise ValueError("generators have mixed degrees")
    for c in range(degree - 1, 1, -1):  # small classes first: cheaper Sym checks
        if degree % c == 0:
            found = _residue_block_order(gens, degree, c)
            if found is not None:
                return found
    return None


def _residue_block_order(gens, n: int, c: int) -> tuple[int, dict] | None:
    k = n // c
    identity = tuple(range(n))
    fixed = tuple(range(c))
    tops = []
    local: list[list[tuple[int, ...]]] = [[] for _ in range(c)]
    for g in gens:
        top = _class_images(g, c)
        if top is None:
            return None
        tops.append(top)
        if top == fixed:
            moved = [j for j in range(c) if g[j::c] != identity[j::c]]
            if len(moved) == 1:
                j = moved[0]
                local[j].append(tuple(y // c for y in g[j::c]))
    full: set[int] = set()
    symmetric: dict[tuple, bool] = {}  # restricted images -> generate Sym(k)
    for j, restricted in enumerate(local):
        if not restricted:
            continue
        key = tuple(restricted)
        if key not in symmetric:
            symmetric[key] = _generates_symmetric(key, k)
        if symmetric[key]:
            full.add(j)
    if len(_orbit(full, lambda j: [top[j] for top in tops])) < c:
        return None
    top_order = PermGroup([Permutation(t) for t in tops], degree=c).order()
    details = {"path": "blocks", "classes": c, "block_size": k, "top_order": str(top_order)}
    return top_order * factorial(k) ** c, details


def _class_images(g: tuple[int, ...], c: int) -> tuple[int, ...] | None:
    """The class mod c onto which g maps each class mod c, or None when g
    splits a class.  A permutation that maps every class into one maps
    the classes bijectively, since they have equal sizes."""
    out = []
    for x in range(c):
        t = g[x] % c
        for y in g[x::c]:
            if y % c != t:
                return None
        out.append(t)
    return tuple(out)


def _generates_symmetric(perms: tuple[tuple[int, ...], ...], k: int) -> bool:
    """True iff the image tuples generate Sym(k).

    Transitivity first, then parity, which are cheap: for k >= 2, even
    permutations generate a subgroup of Alt(k).  Then, when one of them
    is a transposition t = (a b): the pairs {g(a), g(b)}, g in the group,
    are the conjugates of t, transpositions of the group, and they are
    the closure of {a, b} under the generators.  Transpositions whose
    graph on the k points is connected generate Sym(k), and in Sym(k)
    the conjugates of t are all the transpositions, so the group is
    Sym(k) iff that graph is connected.  Without a transposition, the
    order of a degree-k chain decides."""
    if len(_orbit([0], lambda p: [g[p] for g in perms])) < k:
        return False
    if k >= 2 and not any(map(_is_odd, perms)):
        return False
    for t in perms:
        moved = [i for i in range(k) if t[i] != i]
        if len(moved) == 2:
            pairs = _orbit(
                [tuple(moved)], lambda ab: [tuple(sorted((g[ab[0]], g[ab[1]]))) for g in perms]
            )
            adjacent: list[list[int]] = [[] for _ in range(k)]
            for a, b in pairs:
                adjacent[a].append(b)
                adjacent[b].append(a)
            return len(_orbit([0], adjacent.__getitem__)) == k
    return PermGroup([Permutation(g) for g in perms], degree=k).order() == factorial(k)


def _is_odd(g: tuple[int, ...]) -> bool:
    """True iff the image tuple is an odd permutation: one whose degree
    minus its number of cycles is odd."""
    seen = bytearray(len(g))
    cycles = 0
    for i in range(len(g)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = 1
                j = g[j]
    return (len(g) - cycles) % 2 == 1


def _orbit(starts, neighbours) -> set:
    """Everything reachable from the starts, where neighbours(x) lists
    the points one step from x."""
    seen = set(starts)
    pending = list(seen)
    while pending:
        for y in neighbours(pending.pop()):
            if y not in seen:
                seen.add(y)
                pending.append(y)
    return seen


def filter_generators(perms, degree: int | None = None) -> list[Permutation]:
    """Reduce a list of permutations to the sublist that incrementally
    generates the same group: each permutation is kept only when the ones
    kept so far do not already produce it.  The permutations are consumed
    one at a time, so an iterator's items are never all held at once, and
    every one is checked for the common degree.  The reduction is
    `count_and_sift`, which also stops sifting at S_n."""
    perms = iter(perms)
    if degree is None:
        first = next(perms, None)
        if first is None:
            return []
        degree = first.degree
        perms = itertools.chain([first], perms)

    def images():
        for p in perms:
            if p.degree != degree:
                raise ValueError("generators have mixed degrees")
            yield p.images

    return [Permutation._trusted(g) for g in count_and_sift(images(), degree)[1]]


def count_and_sift(images, degree: int) -> tuple[int, list[tuple[int, ...]]]:
    """The number of image tuples in an iterable, all of the given degree,
    and the in-order reduction of `filter_generators`: the tuples that the
    ones kept before them do not generate.

    Each tuple is sifted into one chain until the kept ones generate a
    group of order degree!, which is then S_n, so every later tuple is a
    member.  The rest of the iterable is then only counted, in C, with no
    Python work per item; it is still consumed to its end, so a filtered
    stream still tests every item."""
    items = iter(images)
    chain = _Chain(degree)
    full = factorial(degree)
    kept: list[tuple[int, ...]] = []
    count = 0
    for g in items:
        count += 1
        if not chain.contains(g):
            chain.extend([g])
            kept.append(g)
            if chain.order() == full:
                # Something was kept, so degree >= 2 and every tuple is
                # non-empty: bool counts each one as 1.
                count += sum(map(bool, items))
                break
    return count, kept

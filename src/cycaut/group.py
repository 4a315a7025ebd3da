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
the chain is the same with or without them.  A pair that is composed is
composed in two steps, t = s u_p and then sigma = u_{s(p)}^-1 t, and
sigma is the identity iff t = u_{s(p)}, which is tested between the two:
on the n = 186 block-rows group built from its 72 generators (the one
`tests/test_group.py` pins), 3,227 of the 4,343 pairs composed are
dropped that way before their second composition.

When s fixes p but shares moved points with u_p, sigma = u_p^-1 s u_p is
a conjugate of s: it moves exactly the points u_p^-1(x) for x moved by
s, and sends each to u_p^-1(s(x)).  For a sparse s, one that moves few
points, these pairs are read off u_p^-1 at the moved points of s and at
their images, and they decide exactly whether sigma is a stored
generator: such a generator moves as many points as s, so it is sparse
too, and the chain keeps the set of (point, image) pairs of every sparse
stored generator, as a frozenset over the points it moves.  sigma is a
stored generator iff its pair set is in that set.  Only when it is not
is sigma composed, as u_p^-1 (s u_p), and sifted; it is not the
identity, being a conjugate of s.  Each level keeps, beside its
generators, two itemgetters per sparse one, over its moved points and
over their images.  The look-up costs time in proportion to the points
s moves, where looking sigma up in `stored` would cost two compositions,
a tuple of n points and its hash per pair; on the 72-generator n = 186
block-rows group 14,445 of the 14,807 such pairs are stored generators.

Sparse means that at most a quarter of the points move
(`_sparse_moves`).  The rule leaves every chain of degree < 8 dense, and
all of GL(r, 2) on the 2^r - 1 nonzero vectors, whose non-identity
elements move at least 2^(r-1) of them; the per-column generators of the
block rows, k of n = 31k points, are sparse.

A pass over a level's pairs returns as soon as it finds a residue, and
the level is passed over again, from its first generator, once the
deeper levels have taken the residue in.

`sample` multiplies one drawn transversal u per level into acc, a list,
and acc * u differs from acc only at the points u moves, which all lie
in the mask of u.  So acc is written at the mask's points alone, from a
per-level map, filled as points are drawn, of those points and an
itemgetter of their images under u.  One loop serves every mask: a
sparse one costs its own points, not n, and a mask of nearly all points
costs about one composition.

`block_order` finds the exact order of many large groups without a
chain of their degree.  Split the points 0..n-1 into the c residue
classes mod c, each of size k = n/c.  When every generator maps classes
onto classes, the group G acts on the classes, with image G^D (the block
action) and kernel K, so |G| = |G^D| * |K|, and K lies inside the product
of the symmetric groups Sym(B) of the classes B.  A generator g maps
classes onto classes iff its vector of classes, g(y) mod c over the
points y, repeats its first c entries k times, which list operations
decide without a loop per point; those first entries are its action on
the classes, and duplicate actions are dropped before the degree-c work.
When some generators that move the points of one class B only generate
all of Sym(B), then G contains Sym(B), and so its conjugates Sym(g(B))
for every g in G.  When one of those generators is a transposition,
whether they generate Sym(B) is decided by the smallest block that holds
its two points, found by a union-find without a chain
(`_symmetric_by_transposition`); the constructions supply (1,2) and a
k-cycle, so the length-1922 claim needs no degree-62 chain.  Once these
classes cover all c, K is the whole product, |K| = (k!)^c, and only the order
of G^D, on c points, is left to find, by `exact_order` (Seress,
Permutation Group Algorithms, 2003, on block systems and kernels).  The
word matrices of the block-rows and residue-rows constructions are such
systems: their rows are permuted freely within each column, and the
columns are the classes mod the number of columns (or mod the number of
rows).

`affine_order` needs no chain at all for the paper's column groups
<shift, multipliers>: when every generator is x -> a*x + b mod n and one
is a translation x -> x + b by a unit b, the translations form a normal
subgroup of order n, g -> a is a homomorphism onto the group <a_i> of
the multipliers in Z_n^*, and |G| = n * |<a_i>|, the closure of the a_i
under multiplication mod n (Dixon and Mortimer, Permutation Groups,
1996, section 3.5).  Each generator is checked point by point, up to its
first point off the line a*x + b, so a generator that is not affine costs
little.

`exact_order` is the one order path for verification; its details name
the path: affine | blocks | symmetric | chain.  Since G^D is ordered by
`exact_order` too, the 31 columns of the paper's long codes take the
affine rule, and the 7 columns of the block-rows claims the symmetric one.
"""

from __future__ import annotations

import itertools
from math import factorial, gcd
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
    quarter of the points; else None.  This is the chain's sparsity rule:
    such a generator's conjugates are looked up by the points they move
    (see the module docstring)."""
    moved = tuple(itertools.compress(identity, map(ne, a, identity)))
    return moved if 4 * len(moved) <= len(identity) else None


class _Level:
    __slots__ = (
        "base", "gens", "gen_moves", "orbit", "orbit_order", "pending", "scanned", "paired",
        "transversal_moves",
    )

    def __init__(self, base: int, identity: tuple[int, ...]):
        self.base = base
        # (g, g^-1, `_support` of g)
        self.gens: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
        # per gen: itemgetters of its moved points and of their images, or
        # None when it is not sparse (see `_sparse_moves`)
        self.gen_moves: list[tuple[itemgetter, itemgetter] | None] = []
        # point -> (u, u^-1, mask), u(base) = point; the mask is the union
        # of the supports of the generators u is a product of, so it holds
        # every point u moves
        self.orbit = {base: (identity, identity, 0)}
        self.orbit_order = [base]
        self.pending = [base]
        self.scanned = 0  # gens already applied to every settled orbit point
        self.paired: list[int] = []  # per gen: orbit_order prefix already sifted
        # orbit point p -> (the points of the mask of u_p, an itemgetter of
        # their images), for the points `sample` has drawn
        self.transversal_moves: dict[int, tuple[tuple[int, ...], itemgetter]] = {}


class _Chain:
    def __init__(self, degree: int):
        self.degree = degree
        self.identity = tuple(range(degree))
        self.levels: list[_Level] = []
        self.stored: set[tuple[int, ...]] = set()  # every generator of every level
        # the sparse ones, each as the frozenset of its (moved point, image) pairs
        self.sparse_stored: set[frozenset[tuple[int, int]]] = set()
        self.sifted = 0  # Schreier generators sifted so far

    def extend(self, gens) -> bool:
        """Add generators and re-establish the stabilizer-chain invariant;
        True iff one was not a member.  Each is sifted once."""
        dirty = False
        for g in gens:
            residue, stuck = self._sift(g, 0)
            if residue == self.identity:
                continue
            self._ingest(residue, 0, stuck)
            dirty = True
        if dirty:
            self._process()
        return dirty

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.orbit)
        return n

    def contains(self, g: tuple[int, ...]) -> bool:
        residue, _ = self._sift(g, 0)
        return residue == self.identity

    def sample(self, rng: Random) -> tuple[int, ...]:
        acc = list(self.identity)
        for lvl in self.levels:
            point = lvl.orbit_order[rng.randrange(len(lvl.orbit_order))]
            if point == lvl.base:
                continue
            # acc * u differs from acc only at the points u moves, all in its mask
            moves = lvl.transversal_moves.get(point)
            if moves is None:
                u, _, mask = lvl.orbit[point]
                points = tuple(itertools.compress(self.identity, mask.to_bytes(self.degree, "little")))
                moves = lvl.transversal_moves[point] = (points, itemgetter(*map(u.__getitem__, points)))
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
            moves = (at, itemgetter(*images))
            self.sparse_stored.add(frozenset(zip(moved, images)))
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
        for gi in range(len(gens)):
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
                    at, to = moves
                    points, images = at(upinv), to(upinv)
                    if frozenset(zip(points, images)) in sparse_stored:
                        continue  # sigma is a stored generator
                    sigma = _mul(upinv, _mul(s, up))
                else:
                    t = _mul(s, up)
                    usp, uspinv, _ = orbit[sp]
                    if t == usp:
                        continue  # sigma = u_{s(p)}^-1 t is the identity
                    sigma = _mul(uspinv, t)
                    if sigma in stored:
                        continue
                self.sifted += 1
                residue, stuck = self._sift(sigma, i + 1)
                if residue == identity:
                    continue
                paired[gi] = k + 1
                return self._ingest(residue, i + 1, stuck)
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
    was found: by `affine_order` or `block_order` when one applies, as
    Sym(n) by `_symmetric_by_transposition`, else by a chain of the full
    degree, whose shape and cost the details give: the number of strong
    generators it stores and of Schreier generators it sifted."""
    generators = list(generators)
    found = affine_order(generators, degree) or block_order(generators, degree)
    if found is not None:
        return found
    if _symmetric_by_transposition(_images(generators, degree), degree):
        return factorial(degree), {"path": "symmetric"}
    group = PermGroup(generators, degree)
    return group.order(), {
        "path": "chain",
        "base_len": len(group.base_points()),
        "orbit_sizes": group.orbit_sizes(),
        "strong_generators": len(group._chain.stored),
        "schreier_sifted": group._chain.sifted,
    }


def _images(generators, degree: int) -> list[tuple[int, ...]]:
    """The image tuples of the permutations, which must have the degree."""
    gens = [g.images for g in generators]
    if any(len(g) != degree for g in gens):
        raise ValueError("generators have mixed degrees")
    return gens


def affine_order(generators, degree: int) -> tuple[int, dict] | None:
    """Exact order n * |<a_i>| of <generators> when each is x -> a_i*x + b_i
    mod n and one is a translation by a unit (see the module docstring),
    or None.  The details give |<a_i>|."""
    n = degree
    gens = _images(generators, n)
    if n < 2:
        return None
    multipliers = set()
    translation = False
    for g in gens:
        b = g[0]
        a = (g[1] - b) % n
        if any(y != (a * x + b) % n for x, y in enumerate(g)):
            return None
        multipliers.add(a)
        translation = translation or (a == 1 and gcd(b, n) == 1)
    if not translation:
        return None
    closure = len(_orbit([1], lambda x: [x * a % n for a in multipliers]))
    return n * closure, {"path": "affine", "multipliers": closure}


def block_order(generators, degree: int) -> tuple[int, dict] | None:
    """Exact order of <generators> through a residue-class block system
    (see the module docstring), or None when no system mod c, 1 < c <
    degree, meets the conditions.  The details name the classes, their
    size and the order of the block action."""
    gens = _images(generators, degree)
    for c in range(degree - 1, 1, -1):  # small classes first: cheaper Sym checks
        if degree % c == 0:
            found = _residue_block_order(gens, degree, c)
            if found is not None:
                return found
    return None


def _residue_block_order(gens, n: int, c: int) -> tuple[int, dict] | None:
    k = n // c
    points = range(n)
    fixed = list(range(c))
    mod, div = c.__rmod__, c.__rfloordiv__  # y -> y % c, y -> y // c
    tops = []
    local: list[list[tuple[int, ...]]] = [[] for _ in range(c)]
    for g in gens:
        # g maps classes onto classes iff its class vector repeats with period c
        mods = list(map(mod, g))
        top = mods[:c]
        if mods != top * k:
            return None
        if top == fixed:
            moved = set(map(mod, itertools.compress(points, map(ne, g, points))))
            if len(moved) == 1:
                j = moved.pop()
                # g moves class j alone: its images there, divided by c, permute 0..k-1
                local[j].append(tuple(map(div, g[j::c])))
        tops.append(tuple(top))
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
    tops = list(dict.fromkeys(tops))
    if len(_orbit(full, lambda j: [top[j] for top in tops])) < c:
        return None
    # a bijection that maps classes onto classes permutes them
    top_order = exact_order([Permutation._trusted(t) for t in tops], c)[0]
    details = {"path": "blocks", "classes": c, "block_size": k, "top_order": str(top_order)}
    return top_order * factorial(k) ** c, details


def _generates_symmetric(perms: tuple[tuple[int, ...], ...], k: int) -> bool:
    """True iff the image tuples generate Sym(k): not when all are even
    (for k >= 2 they generate a subgroup of Alt(k)); else as decided by
    `_symmetric_by_transposition`, or by a degree-k chain, whose order is
    k! only for Sym(k)."""
    if k >= 2 and not any(map(_is_odd, perms)):
        return False
    found = _symmetric_by_transposition(perms, k)
    if found is not None:
        return found
    return PermGroup([Permutation._trusted(g) for g in perms], degree=k).order() == factorial(k)


def _symmetric_by_transposition(perms, k: int) -> bool | None:
    """Whether the image tuples generate Sym(k), decided by the first of
    them that is a transposition (a b); None when none is.

    The points x with x = a or (a x) in the group G form a block of G,
    since (a x)(a y)(a x) = (x y), so the relation "x = y or (x y) in G"
    is a G-invariant equivalence.  It holds b, so it holds the smallest
    block B that holds a and b.  If B is all k points, G holds every
    (a x) and is Sym(k); if G = Sym(k), G is primitive and B is all k
    points.  Atkinson's union-find ("An algorithm for finding the blocks
    of a permutation group", Math. Comp. 29, 1975) finds B: merge a and
    b, and for each merged pair (x, y) and each generator g merge the
    classes of g(x) and g(y), queueing each new pair, until every queued
    pair is done.  B is all k points iff k - 1 merges were made.  No
    transitivity test is needed: only points of the orbit of a merge."""
    points = range(k)
    t = next((t for t in perms if sum(map(ne, t, points)) == 2), None)
    if t is None:
        return None
    parent = list(points)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    a, b = itertools.compress(points, map(ne, t, points))
    parent[b] = a
    merged = 1
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        for g in perms:
            u, v = find(g[x]), find(g[y])
            if u != v:
                parent[u] = v
                merged += 1
                pending.append((u, v))
    return merged == k - 1


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

    Each tuple is sifted once, by `_Chain.extend`, into one chain until
    the kept ones generate a group of order degree!, which is then S_n,
    so every later tuple is a member.  The rest of the iterable is then
    only counted, in C, with no Python work per item; it is still
    consumed to its end, so a filtered stream still tests every item."""
    items = iter(images)
    chain = _Chain(degree)
    full = factorial(degree)
    kept: list[tuple[int, ...]] = []
    count = 0
    for g in items:
        count += 1
        if chain.extend([g]):
            kept.append(g)
            if chain.order() == full:
                # Something was kept, so degree >= 2 and every tuple is
                # non-empty: bool counts each one as 1.
                count += sum(map(bool, items))
                break
    return count, kept

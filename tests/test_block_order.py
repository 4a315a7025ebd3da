"""The residue-class block-system order path against the full chain."""

import math

import pytest
from hypothesis import event, given, settings, strategies as st

import cycaut.group as group_module
from cycaut.group import (
    PermGroup,
    _class_moves,
    _generates_symmetric,
    _orbit,
    _residue_block_order,
    block_order,
    exact_order,
)
from cycaut.manifest import (
    _code_for,
    default_manifest_path,
    expand_constructions,
    load_manifest,
    report_record,
    run_entry,
)
from cycaut.perm import Permutation, parse_cycles
from cycaut.verify import verify_claim

ENTRIES = {e["name"]: e for e in load_manifest(default_manifest_path())}
CONSTRUCTED = [name for name, e in ENTRIES.items() if e["method"] == "construct"]
# n = 31 is prime, so the len31 rows have no residue classes to try
DECLINED = {
    "len14-squared-cubic", "len31-two-quintics", "len31-three-quintics",
    "len62-squared-quintic",
}


def _class_perm(images_by_row, c, j, k):
    """Permutation of degree k*c acting on class j (points j + c*r) as the
    row permutation images_by_row and fixing every other point."""
    images = list(range(k * c))
    for r in range(k):
        images[j + c * r] = j + c * images_by_row[r]
    return images


def _cycle(k):
    return [(r + 1) % k for r in range(k)]


def _swap(k):
    return [1, 0] + list(range(2, k))


def _symmetric_gens(c, j, k):
    return [Permutation(tuple(_class_perm(_cycle(k), c, j, k))),
            Permutation(tuple(_class_perm(_swap(k), c, j, k)))]


def _top(sigma, pi, c, k):
    """Class j goes to class sigma[j], row r to row pi[r], in every class."""
    return Permutation(tuple(sigma[x % c] + c * pi[x // c] for x in range(k * c)))


def _product(perms, degree):
    acc = Permutation.identity(degree)
    for p in perms:
        acc = acc * p
    return acc


class TestDefaultManifest:
    @pytest.mark.parametrize("name", CONSTRUCTED)
    def test_matches_the_full_chain(self, name):
        entry = ENTRIES[name]
        code = _code_for(entry["n"], entry["generator"])
        gens = [p for _, p in expand_constructions(code, entry["construction"], cache={})]
        found = block_order(gens, code.length)
        chain = PermGroup(gens, degree=code.length).order()
        if name in DECLINED:
            assert found is None
        else:
            assert found is not None
            assert found[0] == chain == int(entry["expected_order"])
            details = found[1]
            assert details["path"] == "blocks"
            assert details["classes"] * details["block_size"] == code.length
            assert found[0] == int(details["top_order"]) * math.factorial(
                details["block_size"]
            ) ** details["classes"]
        assert exact_order(gens, code.length)[0] == chain

    def test_the_path_applies_to_seven_entries(self):
        assert len(CONSTRUCTED) - len(DECLINED) == 7


class TestRandomWreathProducts:
    """Per-class symmetric groups on some classes, moved around by random
    top permutations of the classes (with a random row map)."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_chain(self, data):
        k = data.draw(st.integers(min_value=2, max_value=5), label="k")
        c = data.draw(st.integers(min_value=2, max_value=5), label="c")
        n = k * c
        full = data.draw(st.sets(st.integers(min_value=0, max_value=c - 1)), label="full")
        gens = []
        for j in sorted(full):
            gens += _symmetric_gens(c, j, k)
        # a class with only its row cycle: Sym(k) for k = 2, cyclic otherwise
        for j in data.draw(st.sets(st.integers(min_value=0, max_value=c - 1)), label="cyclic"):
            gens.append(Permutation(tuple(_class_perm(_cycle(k), c, j, k))))
        tops = []
        for _ in range(data.draw(st.integers(min_value=0, max_value=2), label="tops")):
            sigma = data.draw(st.permutations(range(c)))
            pi = data.draw(st.permutations(range(k)))
            tops.append(sigma)
            top = _top(sigma, pi, c, k)
            if gens and data.draw(st.booleans()):
                top = top * gens[0]  # not class-local, but still maps classes onto classes
            gens.append(top)
        gens = data.draw(st.permutations(gens))
        if not gens:
            gens = [Permutation.identity(n)]

        found = block_order(gens, n)
        event("blocks" if found is not None else "declined")
        chain = PermGroup(gens, degree=n).order()
        if found is not None:
            assert found[0] == chain
        covered = set(full)
        pending = list(full)
        while pending:
            j = pending.pop()
            for sigma in tops:
                if sigma[j] not in covered:
                    covered.add(sigma[j])
                    pending.append(sigma[j])
        if len(covered) == c:
            assert found is not None
            assert found[0] == chain
        assert exact_order(gens, n)[0] == chain


def _class_images(g, c):
    """Reference: the class mod c onto which g maps each class mod c, or
    None when g splits a class, found point by point."""
    out = []
    for x in range(c):
        t = g[x] % c
        for y in g[x::c]:
            if y % c != t:
                return None
        out.append(t)
    return tuple(out)


def _reference_residue_block_order(gens, n, c):
    """Reference: the residue-class order path with the classes checked
    and the class-local generators found point by point, and every top
    kept."""
    k = n // c
    identity = tuple(range(n))
    fixed = tuple(range(c))
    tops = []
    local = [[] for _ in range(c)]
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
    full = {j for j, restricted in enumerate(local) if restricted and _generates_symmetric(tuple(restricted), k)}
    if len(_orbit(full, lambda j: [top[j] for top in tops])) < c:
        return None
    top_order = PermGroup([Permutation(t) for t in tops], degree=c).order()
    details = {"path": "blocks", "classes": c, "block_size": k, "top_order": str(top_order)}
    return top_order * math.factorial(k) ** c, details


def _spoiled(images, c, rng_pick):
    """images with the images of two points of row 2 in different classes
    swapped: for k >= 3 and c >= 2 it keeps the classes of rows 0 and 1
    and splits those of row 2."""
    images = list(images)
    j1, j2 = rng_pick
    x, y = j1 + 2 * c, j2 + 2 * c
    images[x], images[y] = images[y], images[x]
    return tuple(images)


def _wrapped(gens):
    return [Permutation(g) for g in gens]


class TestResidueVectors:
    """`_residue_block_order` decides the classes from each generator's
    moved points alone and drops duplicate tops; it must give what the
    point-by-point reference gives."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_point_by_point_reference(self, data):
        k = data.draw(st.integers(min_value=2, max_value=5), label="k")
        c = data.draw(st.integers(min_value=2, max_value=5), label="c")
        n = k * c
        gens = []
        for j in sorted(data.draw(st.sets(st.integers(0, c - 1)), label="full")):
            gens += [p.images for p in _symmetric_gens(c, j, k)]
        for _ in range(data.draw(st.integers(0, 2), label="tops")):
            sigma = data.draw(st.permutations(range(c)))
            pi = data.draw(st.permutations(range(k)))
            top = _top(sigma, pi, c, k).images
            gens += [top] * data.draw(st.integers(1, 2), label="copies")
        if k >= 3 and gens and data.draw(st.booleans(), label="spoil"):
            pair = data.draw(st.permutations(range(c)), label="classes")[:2]
            gens.append(_spoiled(data.draw(st.sampled_from(gens)), c, pair))
        if data.draw(st.booleans(), label="random"):
            gens.append(tuple(data.draw(st.permutations(range(n)), label="perm")))
        gens = data.draw(st.permutations(gens)) or [tuple(range(n))]
        want = _reference_residue_block_order(gens, n, c)
        event("order" if want is not None else "declined")
        assert _residue_block_order(_wrapped(gens), n, c) == want

    def test_a_class_split_below_the_second_row_declines(self):
        # full Sym on all three classes of 4 points, and the transposition
        # of points 6 and 7, which keeps the classes of rows 0 and 1 only
        c, k = 3, 4
        gens = [p.images for j in range(c) for p in _symmetric_gens(c, j, k)]
        assert _residue_block_order(_wrapped(gens), c * k, c)[0] == math.factorial(k) ** c
        swap = _spoiled(tuple(range(c * k)), c, (0, 1))
        assert swap == (0, 1, 2, 3, 4, 5, 7, 6, 8, 9, 10, 11)
        assert _class_images(swap, c) is None
        assert _residue_block_order(_wrapped([*gens, swap]), c * k, c) is None

    def test_duplicate_tops_give_the_same_order(self):
        c, k = 3, 2
        gens = [p.images for j in range(c) for p in _symmetric_gens(c, j, k)]
        top = _top([1, 2, 0], [0, 1], c, k).images
        once = _residue_block_order(_wrapped([*gens, top]), c * k, c)
        assert once[0] == 3 * 2**3
        assert _residue_block_order(_wrapped([top, *gens, top, top]), c * k, c) == once

    def test_a_class_moved_whole_onto_another_is_accepted(self):
        # g maps class 0 = {0, 3, 6} onto class 1 and class 1 onto class 0,
        # so class 0 holds no fixed point, and moves 2 and 5 within class 2
        c, k = 3, 3
        g = (1, 3, 5, 4, 6, 2, 7, 0, 8)
        assert _class_images(g, c) == (1, 0, 2)
        assert _class_moves(Permutation(g), c) == {0: 1, 1: 0, 2: 2}
        gens = [p.images for j in (0, 2) for p in _symmetric_gens(c, j, k)] + [g]
        found = _residue_block_order(_wrapped(gens), c * k, c)
        assert found == _reference_residue_block_order(gens, c * k, c)
        assert found[1]["top_order"] == "2"
        assert found[0] == 2 * math.factorial(k) ** c == PermGroup(_wrapped(gens), degree=c * k).order()

    def test_a_class_moved_in_part_into_another_declines(self):
        # (0,1)(3,4) sends two points of class 0 = {0, 3, 6} into class 1
        # and fixes the third: its moved points alone agree on one class
        c, k = 3, 3
        g = (1, 0, 2, 4, 3, 5, 6, 7, 8)
        assert _class_images(g, c) is None
        assert _class_moves(Permutation(g), c) is None
        gens = [p.images for j in range(c) for p in _symmetric_gens(c, j, k)]
        assert _residue_block_order(_wrapped(gens), c * k, c) is not None
        assert _residue_block_order(_wrapped([*gens, g]), c * k, c) is None


class TestGeneratesSymmetric:
    """`_generates_symmetric` refuses Sym(k) to even generators, decides
    it from the graph of the conjugates of a transposition when one
    generator is a transposition, and from a degree-k chain otherwise."""

    @staticmethod
    def _no_chain(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a chain was built")

        monkeypatch.setattr(group_module, "PermGroup", refuse)

    def test_dihedral_group_of_order_8(self, monkeypatch):
        # <(1,2), (1,3)(2,4)> is transitive on 4 points and holds a
        # transposition, but its conjugates (1,2) and (3,4) leave the
        # graph disconnected: it is the dihedral group of order 8
        perms = ((1, 0, 2, 3), (2, 3, 0, 1))
        assert PermGroup([Permutation(g) for g in perms], degree=4).order() == 8
        self._no_chain(monkeypatch)
        assert not _generates_symmetric(perms, 4)

    def test_transposition_and_cycle(self, monkeypatch):
        self._no_chain(monkeypatch)
        assert _generates_symmetric(((1, 0, 2, 3, 4), (1, 2, 3, 4, 0)), 5)
        assert _generates_symmetric(((1, 0),), 2)

    def test_even_generators_need_no_chain(self, monkeypatch):
        # the len62-squared-quintic generators of GL(5,2) on 31 points: a
        # 31-cycle and a product of 8 transpositions, both even
        shift31 = tuple((i + 1) % 31 for i in range(31))
        transvection = parse_cycles("(1,19)(6,12)(9,24)(11,18)(15,16)(17,26)(23,27)(28,30)", 31)
        self._no_chain(monkeypatch)
        assert not _generates_symmetric((shift31, transvection.images), 31)
        # A_4 from two 3-cycles
        assert not _generates_symmetric(((1, 2, 0, 3), (0, 2, 3, 1)), 4)

    def test_intransitive_generators(self):
        # no transitivity test runs first: the union-find stays inside the
        # orbit of the transposition's points, parity refuses even
        # generators, and a chain of an intransitive group has order < k!
        assert not _generates_symmetric(((1, 0, 2),), 3)
        assert not _generates_symmetric(((1, 0, 2, 3), (0, 1, 3, 2)), 4)
        # an odd 4-cycle fixing the fifth point: the chain decides
        assert not _generates_symmetric(((1, 2, 3, 0, 4),), 5)

    def test_without_a_transposition_the_chain_decides(self):
        # S_4 from a 4-cycle and a 3-cycle; Sym(1)
        assert _generates_symmetric(((1, 2, 3, 0), (1, 2, 0, 3)), 4)
        assert _generates_symmetric(((0,),), 1)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_chain(self, data):
        k = data.draw(st.integers(min_value=1, max_value=6), label="k")
        perm = st.permutations(range(k)).map(tuple)
        perms = data.draw(st.lists(perm, min_size=1, max_size=3), label="perms")
        if k >= 2 and data.draw(st.booleans(), label="transposition"):
            a, b = data.draw(st.permutations(range(k)), label="pair")[:2]
            t = list(range(k))
            t[a], t[b] = b, a
            perms.insert(data.draw(st.integers(0, len(perms)), label="at"), tuple(t))
        chain = PermGroup([Permutation(g) for g in perms], degree=k).order()
        event(f"symmetric={chain == math.factorial(k)}")
        assert _generates_symmetric(tuple(perms), k) == (chain == math.factorial(k))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_union_find_agrees_with_the_chain_up_to_9(self, data):
        # a transposition among random generators, or, when k has a
        # proper divisor m, a transposition inside a block of a system of
        # blocks of m points and generators that keep the system
        k = data.draw(st.integers(min_value=2, max_value=9), label="k")
        sizes = [m for m in range(2, k) if k % m == 0]
        perms = []
        if sizes and data.draw(st.booleans(), label="imprimitive"):
            m = data.draw(st.sampled_from(sizes), label="m")
            blocks = k // m
            if data.draw(st.booleans(), label="block shift"):
                perms.append(tuple((x + m) % k for x in range(k)))
            for _ in range(data.draw(st.integers(0, 2), label="gens")):
                sigma = data.draw(st.permutations(range(blocks)), label="sigma")
                inside = [data.draw(st.permutations(range(m)), label="inside") for _ in range(blocks)]
                perms.append(tuple(sigma[x // m] * m + inside[x // m][x % m] for x in range(k)))
            b = data.draw(st.integers(0, blocks - 1), label="block")
            a1, a2 = data.draw(st.permutations(range(m)), label="pair")[:2]
            a, b = b * m + a1, b * m + a2
            event("imprimitive")
        else:
            perm = st.permutations(range(k)).map(tuple)
            perms += data.draw(st.lists(perm, min_size=0, max_size=3), label="perms")
            a, b = data.draw(st.permutations(range(k)), label="pair")[:2]
        t = list(range(k))
        t[a], t[b] = b, a
        perms.insert(data.draw(st.integers(0, len(perms)), label="at"), tuple(t))
        chain = PermGroup([Permutation(g) for g in perms], degree=k).order()
        event(f"symmetric={chain == math.factorial(k)}")
        assert _generates_symmetric(tuple(perms), k) == (chain == math.factorial(k))

    def test_union_find_at_degree_961(self, monkeypatch):
        # the class-local generators of the n = 29791 claim: a 961-cycle
        # and a transposition; and the imprimitive <(0,1), x -> x + 31>
        self._no_chain(monkeypatch)
        k = 961
        cycle = tuple((x + 1) % k for x in range(k))
        swap = (1, 0, *range(2, k))
        assert _generates_symmetric((cycle, swap), k)
        assert not _generates_symmetric((swap, tuple((x + 31) % k for x in range(k))), k)


class TestSymmetricPath:
    """`exact_order` orders a group that holds a transposition as Sym(n)
    by the union-find, with no chain, when the smallest block that holds
    the transposition's points is every point; otherwise the chain does."""

    @pytest.mark.parametrize("n", range(4, 13))
    def test_symmetric_groups_need_no_chain(self, monkeypatch, n):
        TestGeneratesSymmetric._no_chain(monkeypatch)
        cycle = Permutation(tuple((x + 1) % n for x in range(n)))
        swaps = [parse_cycles(f"({i},{i + 1})", n) for i in range(1, n)]
        for gens in ([swaps[0], cycle], [cycle, swaps[-1]], swaps, swaps[::-1]):
            assert exact_order(gens, n) == (math.factorial(n), {"path": "symmetric"})

    def test_dihedral_group_of_order_8_takes_the_chain(self):
        # the smallest block holding 1 and 2 is {1, 2}: not all 4 points
        gens = [parse_cycles("(1,2)", 4), parse_cycles("(1,3)(2,4)", 4)]
        order, details = exact_order(gens, 4)
        assert (order, details["path"]) == (8, "chain")

    @pytest.mark.parametrize("n", range(3, 13))
    def test_a_fixed_point_leaves_one_merge_short(self, n):
        # Sym(n - 1) on the first n - 1 points: n - 2 merges, not n - 1
        gens = [parse_cycles("(1,2)", n), parse_cycles(f"({','.join(map(str, range(1, n)))})", n)]
        order, details = exact_order(gens, n)
        assert (order, details["path"]) == (math.factorial(n - 1), "chain")

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_chain_up_to_12(self, data):
        # random permutations, cycles on drawn points (so that intransitive
        # groups come up), and a transposition about half the time
        n = data.draw(st.integers(min_value=2, max_value=12), label="n")
        perms = data.draw(st.lists(st.permutations(range(n)), max_size=2), label="perms")
        for _ in range(data.draw(st.integers(0, 2), label="cycles")):
            drawn = st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
            points = data.draw(drawn, label="cycle")
            g = list(range(n))
            for x, y in zip(points, points[1:] + points[:1]):
                g[x] = y
            perms.append(g)
        if data.draw(st.booleans(), label="transposition"):
            a, b = data.draw(st.permutations(range(n)), label="pair")[:2]
            t = list(range(n))
            t[a], t[b] = b, a
            perms.insert(data.draw(st.integers(0, len(perms)), label="at"), t)
        gens = [Permutation(tuple(g)) for g in perms]
        order, details = exact_order(gens, n)
        event(f"path={details['path']}")
        assert order == PermGroup(gens, degree=n).order()

    def test_the_default_table_builds_no_chain_of_a_symmetric_group(self, monkeypatch):
        # the S_7 tops of the block-rows, residue-rows and cubic-product
        # rows, and the S_7 of the len7 brute force, hold a transposition
        built = []
        real = group_module.PermGroup

        def recording(gens, degree=None):
            group = real(gens, degree)
            built.append((group.degree, group.order()))
            return group

        monkeypatch.setattr(group_module, "PermGroup", recording)
        cache = {}
        for entry in ENTRIES.values():
            assert run_entry(entry, cache=cache).passed, entry["name"]
        assert built and all(order < math.factorial(degree) for degree, order in built)


class TestDeclines:
    """Each case must fall back to the chain, or to the transposition
    test when a generator is a transposition.  n = 9 has the one system
    mod 3, so no other partition can take over."""

    K = C = 3
    N = 9

    def _falls_back(self, gens, path="chain"):
        assert block_order(gens, self.N) is None
        order, details = exact_order(gens, self.N)
        assert details["path"] == path
        assert order == PermGroup(gens, degree=self.N).order()
        return order

    def test_class_fixing_generator_moving_two_classes(self):
        k, c = self.K, self.C
        two = [
            _product(p, self.N)
            for p in zip(_symmetric_gens(c, 0, k), _symmetric_gens(c, 1, k))
        ]
        cyc = _top([1, 2, 0], list(range(k)), c, k)
        order = self._falls_back(two + [cyc])
        # the kernel is not the full product, so the claimed formula would be wrong
        assert order != 3 * math.factorial(k) ** c

    def test_symmetric_on_some_classes_with_intransitive_top(self):
        k, c = self.K, self.C
        swap01 = _top([1, 0, 2], list(range(k)), c, k)
        order = self._falls_back(_symmetric_gens(c, 0, k) + [swap01])
        assert order == 2 * math.factorial(k) ** 2

    def test_one_generator_breaks_the_partition(self):
        k, c = self.K, self.C
        gens = []
        for j in range(c):
            gens += _symmetric_gens(c, j, k)
        gens.append(_top([1, 2, 0], list(range(k)), c, k))
        assert block_order(gens, self.N)[0] == 3 * math.factorial(k) ** c
        breaker = Permutation((1, 0) + tuple(range(2, self.N)))  # points 0, 1: classes 0, 1
        assert self._falls_back(gens + [breaker], "symmetric") == math.factorial(self.N)

    def test_degrees_without_a_proper_divisor(self):
        for n in (0, 1, 2, 3, 5, 7):
            assert block_order([Permutation.identity(n)], n) is None

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            block_order([Permutation.identity(4), Permutation.identity(6)], 6)


class TestReportDetails:
    def test_blocks_path(self):
        report = run_entry(ENTRIES["len49-block-rows"], cache={})
        assert report.passed
        assert report.details["order"] == {
            "path": "blocks", "classes": 7, "block_size": 7, "top_order": "5040",
        }

    def test_blocks_path_when_sampling(self):
        # sampling asks no membership, so a sampled claim takes the same
        # order path as the claim without sampling
        entry = ENTRIES["len14-cubic-product"]
        report = run_entry(entry, cache={})
        assert report.passed and report.sample_trials == 1000
        unsampled = {key: value for key, value in entry.items() if key != "sampling"}
        assert report.details["order"] == run_entry(unsampled, cache={}).details["order"]
        assert report.details["order"]["path"] == "blocks"

    def test_chain_path_when_declined(self):
        entry = ENTRIES["len14-squared-cubic"]
        code = _code_for(entry["n"], entry["generator"])
        gens = expand_constructions(code, entry["construction"], cache={})
        report = verify_claim(code, gens, int(entry["expected_order"]))
        assert report.passed
        details = report.details["order"]
        assert details["path"] == "chain"
        assert details["base_len"] == 6
        assert details["orbit_sizes"] == [14, 6, 7, 6, 4, 4]
        assert details["strong_generators"] == 13
        # the sifts are counted; a later skip may lower the count
        assert 0 < details["schreier_sifted"] <= 23

    def test_record_has_no_details(self):
        report = run_entry(ENTRIES["len49-residue-rows"], cache={})
        assert set(report_record(report)) == {
            "name", "n", "generator", "expected_order",
            "computed_order", "pass", "elapsed_ms", "seed",
        }

"""Cover-array algorithms: goldens, traces, invariants, oracle equivalence."""

import random
import sys
import tracemalloc

import pytest

from conftest import (
    EXAMPLE_TEXT,
    KINDS,
    TABLE1_BORDER,
    TABLE1_LCOVER,
    TABLE1_SCOVER,
    TABLE2_BORDER,
    TABLE2_LCOVER,
    TABLE2_SCOVER,
    cov_set,
    lseed_set,
    strings,
)
from helpers import fibonacci, left_seeds_by_walk, periodic_text
from quasicover import covers
from quasicover.border import BorderBuilder, border_array
from quasicover.covers import (
    LongestCoverArray,
    ShortestCoverArray,
    all_cover_lengths,
    is_primitive,
    left_seed_lengths,
    longest_cover_array,
    longest_cover_array_li_smyth,
    shortest_cover_array,
)
from quasicover.oracle import brute_lcover, brute_left_seeds
from quasicover.scer import ScerKind, TokenSeq


class TestShortestGolden:
    def test_identity_table(self):
        assert list(shortest_cover_array(TABLE1_BORDER).scover) == TABLE1_SCOVER

    def test_parameterized_table(self):
        assert list(shortest_cover_array(TABLE2_BORDER).scover) == TABLE2_SCOVER

    def test_empty(self):
        assert shortest_cover_array([]).scover == []

    def test_rejects_malformed_border(self):
        with pytest.raises(ValueError):
            shortest_cover_array([0, 0, 2])
        with pytest.raises(ValueError):
            shortest_cover_array([1])


class TestLongestGolden:
    def test_identity_table(self):
        assert list(longest_cover_array(TABLE1_BORDER).lcover) == TABLE1_LCOVER

    def test_parameterized_table(self):
        assert list(longest_cover_array(TABLE2_BORDER).lcover) == TABLE2_LCOVER

    def test_li_smyth_identity_table(self):
        assert list(longest_cover_array_li_smyth(TABLE1_BORDER).lcover) == TABLE1_LCOVER

    def test_length_one(self):
        assert list(longest_cover_array_li_smyth([0]).lcover) == [0]
        assert list(longest_cover_array([0]).lcover) == [0]

    def test_rejects_malformed_border(self):
        with pytest.raises(ValueError):
            longest_cover_array([0, 0, 2])
        with pytest.raises(ValueError):
            longest_cover_array_li_smyth([0, 0, 2])
        with pytest.raises(ValueError):
            longest_cover_array_li_smyth([0, 1.0])


class TestAabTrace:
    """The length-3 text aab, where the two variants differ internally."""

    BORDER = [0, 1, 0]

    def test_both_variants_output(self):
        assert list(longest_cover_array(self.BORDER).lcover) == [0, 1, 0]
        assert list(longest_cover_array_li_smyth(self.BORDER).lcover) == [0, 1, 0]

    def test_li_smyth_state_after_increment_at_3(self):
        snapshots = {}

        def grab(i, lca):
            snapshots[i] = (list(lca.ls_children), list(lca.longest_ls_anc), list(lca.dead))

        longest_cover_array_li_smyth(self.BORDER, after_increment=grab)
        children, anc, dead = snapshots[3]
        assert children == [2, 1, 0, 0]
        assert anc == [0, 1, 2, 3]
        assert dead == [False, False, False, False]

    def test_li_smyth_final_dead(self):
        result = longest_cover_array_li_smyth(self.BORDER)
        assert list(result.dead) == [0, 3, 3, 0]

    def test_main_variant_final_children(self):
        # after the ascending sweep only the root keeps a live child
        result = longest_cover_array(self.BORDER)
        assert list(result.ls_children) == [1, 0, 0, 0]


class TestOneClassPerArray:
    """The batch functions return the object that pushing by hand builds."""

    def texts(self):
        rng = random.Random(31)
        yield from ((), (0,), EXAMPLE_TEXT)
        for _ in range(40):
            n = rng.randrange(1, 40)
            yield tuple(rng.randrange(rng.randrange(1, 4)) for _ in range(n))

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_equals_pushed_by_hand(self, kind):
        for s in self.texts():
            b = border_array(s, kind)
            sca = ShortestCoverArray()
            lca = LongestCoverArray()
            for v in b:
                assert sca.push(v) == sca.scover[-1]
                assert lca.push(v) == lca.lcover[-1]
            assert shortest_cover_array(b) == sca
            assert longest_cover_array(b) == lca
            assert lca.while_successes == sum(map(bool, lca.dead))
            if b:
                sca.push(0)
                lca.push(0)
                assert shortest_cover_array(b) != sca
                assert longest_cover_array(b) != lca

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_pass_iterable_equals_list(self, kind):
        for s in self.texts():
            b = border_array(s, kind)
            for build in (shortest_cover_array, longest_cover_array,
                          longest_cover_array_li_smyth):
                assert build(v for v in b) == build(b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_push_continues_li_smyth(self, kind):
        for s in self.texts():
            b = border_array(s, kind)
            full = longest_cover_array(b)
            for k in range(len(b) + 1):
                lca = longest_cover_array_li_smyth(b[:k])
                for v in b[k:]:
                    lca.push(v)
                assert lca.lcover == full.lcover
                assert lca.ls_children == full.ls_children
                assert lca.longest_ls_anc == full.longest_ls_anc
                assert (lca.op_count, lca.while_successes) == (
                    full.op_count, full.while_successes)

    @pytest.mark.parametrize("kind", KINDS)
    def test_push_keeps_dead_current(self, kind):
        for s in self.texts():
            b = border_array(s, kind)
            full = longest_cover_array_li_smyth(b)
            for k in range(len(b) + 1):
                lca = longest_cover_array_li_smyth(b[:k])
                for v in b[k:]:
                    lca.push(v)
                assert lca.dead == full.dead, (s, k)
                assert lca.while_successes == sum(map(bool, lca.dead)), (s, k)
            # the ascending loop marks the nodes the descending one does
            plain = LongestCoverArray()
            for v in b:
                plain.push(v)
            assert plain == full
            assert plain.while_successes == sum(map(bool, plain.dead))


class TestQueries:
    def test_all_cover_lengths_table1(self):
        lca = longest_cover_array(TABLE1_BORDER)
        assert all_cover_lengths(lca, 16) == [3, 8, 16]
        assert all_cover_lengths(lca, 1) == [1]

    def test_all_cover_lengths_table2(self):
        lca = longest_cover_array(TABLE2_BORDER)
        assert all_cover_lengths(lca, 9) == [1, 9]

    def test_all_cover_lengths_range(self):
        lca = longest_cover_array(TABLE1_BORDER)
        with pytest.raises(IndexError):
            all_cover_lengths(lca, 0)
        with pytest.raises(IndexError):
            all_cover_lengths(lca, 17)

    def test_is_primitive_table1(self):
        sca = shortest_cover_array(TABLE1_BORDER)
        assert not is_primitive(sca, 6)
        assert is_primitive(sca, 1)
        assert is_primitive(sca, 12)
        assert not is_primitive(sca, 16)
        with pytest.raises(IndexError):
            is_primitive(sca, 0)
        with pytest.raises(IndexError):
            is_primitive(sca, 17)

    def test_left_seeds_order_iso_example(self):
        # adcbc with a<b<c<d: acb (length 3) is a left seed
        t = (0, 3, 2, 1, 2)
        b = border_array(t, ScerKind.ORDER_ISO)
        lca = longest_cover_array(b)
        seeds = left_seed_lengths(b, lca, 5)
        assert 3 in seeds
        assert seeds == brute_left_seeds(t, ScerKind.ORDER_ISO, 5)

    def test_left_seeds_trivial(self):
        b = [0]
        lca = longest_cover_array(b)
        assert left_seed_lengths(b, lca, 1) == [1]

    def test_left_seeds_aab(self):
        b = [0, 1, 0]
        lca = longest_cover_array(b)
        assert left_seed_lengths(b, lca, 3) == [3]

    def test_left_seeds_range(self):
        b = [0, 1, 0]
        lca = longest_cover_array(b)
        with pytest.raises(IndexError):
            left_seed_lengths(b, lca, 0)
        with pytest.raises(IndexError):
            left_seed_lengths(b, lca, 4)

    def test_left_seeds_range_names_shorter_length(self):
        # a border shorter than the array bounds the query, and the message says so
        b = border_array(b"abaababaab", ScerKind.IDENTITY)
        lca = longest_cover_array(b)
        with pytest.raises(IndexError, match=r"^position 7 out of range for length 5$"):
            left_seed_lengths(b[:5], lca, 7)
        with pytest.raises(IndexError, match=r"^position 7 out of range for length 5$"):
            left_seed_lengths(b, longest_cover_array(b[:5]), 7)
        assert left_seed_lengths(b[:5], lca, 5) == left_seed_lengths(b, lca, 5)


class TestRetiredIndex:
    """The cut path reads lca._retired, which it rebuilds when its length is
    not while_successes; every answer must equal a fresh build's and the walk."""

    def texts(self):
        rng = random.Random(43)
        fib = fibonacci(300)
        yield fib
        # a flipped letter retires many earlier nodes at once
        flips = [[150]] + [[rng.randrange(300) for _ in range(rng.randrange(1, 4))]
                           for _ in range(4)]
        for ks in flips:
            t = list(fib)
            for k in ks:
                t[k] ^= 1
            yield t
        yield [rng.randrange(2) for _ in range(200)]

    @staticmethod
    def answers(border, lca, n):
        return [left_seed_lengths(border, lca, i) for i in range(1, n + 1)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_extend_after_cut_path_queries(self, kind):
        seen = {"cut before": 0, "retired below queries": 0, "cut after": 0}
        for text in self.texts():
            b = border_array(text, kind)
            n = len(b)
            fresh = longest_cover_array(b)
            expected = [left_seeds_by_walk(b, fresh.lcover, i) for i in range(1, n + 1)]
            assert self.answers(b, fresh, n) == expected
            for k in (40, 100, 160, n - 20):
                lca = LongestCoverArray()
                lca.extend(b[:k])
                assert self.answers(b, lca, k) == expected[:k], (text, k)
                seen["cut before"] += 2 * lca.while_successes <= k
                before = lca._retired
                held = list(before)
                lca.extend(b[k:])
                # the chunk retires nodes below the positions already queried
                seen["retired below queries"] += any(d > k for d in lca.dead[:k])
                seen["cut after"] += 2 * lca.while_successes <= k
                assert self.answers(b, lca, n) == expected, (text, k)
                assert lca == fresh
                if 2 * lca.while_successes <= n:
                    # the cut-path query at n brought the index up to date
                    assert lca._retired == [j for j, d in enumerate(lca.dead) if d]
                # a rebuild assigns a new list and leaves the one it replaced alone
                assert before == held
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("kind", KINDS)
    def test_query_from_li_smyth_hook(self, kind):
        rng = random.Random(47)
        texts = list(strings(10, 2, min_len=1))
        texts += [tuple(rng.randrange(rng.randrange(1, 4)) for _ in range(rng.randrange(1, 80)))
                  for _ in range(100)]
        texts += self.texts()
        paths = {True: 0, False: 0}
        for s in texts:
            b = border_array(s, kind)
            n = len(b)
            hooked = {}

            def query(i, lca):
                cut = 2 * lca.while_successes <= i
                hooked[i] = cut, left_seed_lengths(b, lca, i)

            lca = longest_cover_array_li_smyth(b, after_increment=query)
            fresh = longest_cover_array(b)
            assert lca == fresh
            expected = [left_seeds_by_walk(b, fresh.lcover, i) for i in range(1, n + 1)]
            assert self.answers(b, lca, n) == self.answers(b, fresh, n) == expected, s
            for i, (cut, got) in hooked.items():
                paths[cut] += 1
                if cut:
                    # the hook runs before the retirements at i, which the cut
                    # path then still counts as left seeds
                    at_i = [j for j in range(1, i + 1) if fresh.dead[j] == i]
                    assert got == sorted(expected[i - 1] + at_i), (s, i)
                else:
                    assert got == expected[i - 1], (s, i)
        assert min(paths.values()) > 0, paths


class TestCutPathAtScale:
    """Cut-path answers on n = 5,000 texts, far beyond the exhaustive
    universe: they equal the walk, and they are slices of the shared pool."""

    N = 5_000

    def texts(self):
        yield periodic_text(random.Random(53), self.N)
        yield fibonacci(self.N)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_walk(self, kind):
        seen = {"run from node 1": 0, "run of two or more": 0, "retired later, kept": 0}
        for text in self.texts():
            b = border_array(text, kind)
            lca = longest_cover_array(b)
            dead = lca.dead
            queries = range(max(1, 2 * lca.while_successes), self.N + 1, 7)
            assert len(queries) > self.N // 8
            for i in queries:
                got = left_seed_lengths(b, lca, i)
                assert got == left_seeds_by_walk(b, lca.lcover, i), (kind, i)
                below = [j for j in lca._retired if j < i]
                cut = [j for j in below if dead[j] <= i]
                seen["run from node 1"] += cut[:1] == [1]
                seen["run of two or more"] += any(k + 1 == j for k, j in zip(cut, cut[1:]))
                seen["retired later, kept"] += len(cut) < len(below)
        if kind != ScerKind.IDENTITY:
            # under param and op every length-1 prefix covers the text, so
            # node 1 never retires
            assert seen.pop("run from node 1") == 0
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("kind", KINDS)
    def test_answers_are_pool_slices(self, kind):
        for text in self.texts():
            b = border_array(text, kind)
            lca = longest_cover_array(b)
            ws = lca.while_successes
            for i in (2 * ws, 3 * ws + 1, self.N // 2, self.N - 1, self.N):
                ans = left_seed_lengths(b, lca, i)
                pool = covers._NATURALS
                assert all(x is pool[x] for x in ans), (kind, i)
                # del keeps the slice's capacity: up to while_successes spare slots
                assert sys.getsizeof(ans) <= sys.getsizeof([]) + 8 * (len(ans) + ws), (kind, i)
                held = list(ans)
                ans.reverse()
                ans[0] = -1
                del ans[1::2]
                ans.clear()
                assert all(pool[k] == k for k in range(i + 1))
                assert left_seed_lengths(b, lca, i) == held, (kind, i)


@pytest.mark.parametrize("kind", KINDS)
def test_requests_from_an_empty_pool(kind, monkeypatch):
    # Earlier tests have grown the process-wide pool, so a request one entry
    # too short would go unseen there. From an empty pool (which grows by no
    # slack below 8 entries) it raises IndexError. All-equal tokens reach the
    # largest border value, n - 1.
    for n in range(1, 9):
        for text in ([0] * n, [j % 2 for j in range(n)], list(range(n))):
            b = border_array(text, kind)
            sca, lca = shortest_cover_array(b), longest_cover_array(b)
            seeds = left_seed_lengths(b, lca, n)
            monkeypatch.setattr(covers, "_NATURALS", [])
            assert BorderBuilder(kind).extend(text) == b, (n, text)
            monkeypatch.setattr(covers, "_NATURALS", [])
            fresh_sca = ShortestCoverArray()
            fresh_sca.extend(b)
            assert fresh_sca == sca, (n, text)
            monkeypatch.setattr(covers, "_NATURALS", [])
            fresh_lca = LongestCoverArray()
            fresh_lca.extend(b)
            assert fresh_lca == lca, (n, text)
            monkeypatch.setattr(covers, "_NATURALS", [])
            assert left_seed_lengths(b, lca, n) == seeds, (n, text)


def small_universe():
    yield from strings(8, 2, min_len=1)
    yield from strings(6, 3, min_len=1)


class TestOracleEquivalence:
    @pytest.mark.parametrize("kind", KINDS)
    def test_left_seeds_match_brute_force(self, kind):
        for s in small_universe():
            b = border_array(s, kind)
            lca = longest_cover_array(b)
            for i in range(1, len(s) + 1):
                assert left_seed_lengths(b, lca, i) == brute_left_seeds(s, kind, i)

    @pytest.mark.parametrize("kind", KINDS)
    def test_chain_consistency(self, kind):
        # shortest cover is the smallest ancestor in the cover tree
        for s in small_universe():
            b = border_array(s, kind)
            sca = shortest_cover_array(b)
            lca = longest_cover_array(b)
            for i in range(1, len(s) + 1):
                assert sca.scover[i - 1] == min(all_cover_lengths(lca, i))

    @pytest.mark.parametrize("kind", KINDS)
    def test_left_seed_monotonicity(self, kind):
        for s in strings(7, 2, min_len=2):
            b = border_array(s, kind)
            lca = longest_cover_array(b)
            prev = None
            for i in range(1, len(s) + 1):
                cur = set(left_seed_lengths(b, lca, i))
                if prev is not None:
                    for j in range(1, i):
                        if j not in prev:
                            assert j not in cur
                prev = cur


class TestAlgorithmInvariants:
    """Per-iteration invariants of both online algorithms on small inputs."""

    def check_reach_invariant(self, s, kind):
        b = border_array(s, kind)

        def check(i, builder):
            for j in range(1, i + 1):
                prefix = s[:j]
                if min(cov_set(prefix, kind)) != j:  # not primitive
                    assert builder.reach[j - 1] == 0
                else:
                    covered = [p for p in range(j, i + 1) if j in cov_set(s[:p], kind)]
                    assert builder.reach[j - 1] == max(covered)
                assert builder.scover[j - 1] == min(cov_set(prefix, kind))

        sca = ShortestCoverArray()
        for i, v in enumerate(b, start=1):
            sca.push(v)
            check(i, sca)

    def check_tree_invariants(self, s, kind):
        b = border_array(s, kind)
        true_lcover = [0] + brute_lcover(s, kind)

        def check(i, builder):
            seeds = lseed_set(s[:i], kind)
            # children counts (invariant on LSChildren)
            for j in range(0, i + 1):
                expected = sum(1 for k in seeds if true_lcover[k] == j)
                assert builder.ls_children[j] == expected
            # lcover entries settled so far
            for j in range(1, i + 1):
                assert builder.lcover[j - 1] == true_lcover[j]
            # lowest left-seed ancestor for j up to Border[i]
            for j in range(0, b[i - 1] + 1):
                candidates = [l for l in seeds if l in cov_set(s[:j], kind)] if j else []
                assert builder.longest_ls_anc[j] == (max(candidates) if candidates else 0)

        lca = LongestCoverArray()
        for i, v in enumerate(b, start=1):
            # extend's test for a retired border node reads dead alone: a
            # node has retired exactly when it is childless and 0 < 2v < i
            assert bool(lca.dead[v]) == (lca.ls_children[v] == 0 and 0 < 2 * v < i)
            lca.push(v)
            check(i, lca)
            # a node that is still a left seed is its own lowest left-seed ancestor
            assert all(lca.longest_ls_anc[j] == j for j, d in enumerate(lca.dead) if not d)

    @pytest.mark.parametrize("kind", KINDS)
    def test_reach_invariant_small(self, kind):
        for s in strings(6, 2, min_len=1):
            self.check_reach_invariant(s, kind)
        for s in strings(5, 3, min_len=1):
            self.check_reach_invariant(s, kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_tree_invariants_small(self, kind):
        for s in strings(6, 2, min_len=1):
            self.check_tree_invariants(s, kind)
        for s in strings(5, 3, min_len=1):
            self.check_tree_invariants(s, kind)


class TestLinearity:
    def test_each_node_retired_at_most_once(self):
        rng = random.Random(99)
        for alphabet in (2, 3):
            text = [rng.randrange(alphabet) for _ in range(3000)]
            for kind in (ScerKind.IDENTITY, ScerKind.PARAMETERIZED):
                builder = LongestCoverArray()
                for v in border_array(text, kind):
                    builder.push(v)
                # a node retired twice would count twice but mark dead once
                assert builder.while_successes == sum(map(bool, builder.dead))
                assert builder.while_successes <= len(text)

    def test_inner_loop_work_bounded(self):
        rng = random.Random(7)
        text = [rng.randrange(2) for _ in range(5000)]
        for kind in (ScerKind.IDENTITY, ScerKind.PARAMETERIZED):
            b = border_array(text, kind)
            lca = longest_cover_array(b)
            # outer n iterations + telescoping inner-for range + <= n retirements
            assert lca.op_count <= 3 * len(text)
            # per-value push and the descending variant count the same work
            pushed = LongestCoverArray()
            for v in b:
                pushed.push(v)
            for other in (pushed, longest_cover_array_li_smyth(b)):
                assert (other.op_count, other.while_successes) == (
                    lca.op_count, lca.while_successes)

    def test_shortest_builder_constant_work_per_step(self):
        builder = ShortestCoverArray()
        for v in TABLE1_BORDER:
            builder.push(v)
        assert builder.op_count == 2 * len(TABLE1_BORDER)


class IndexOne:
    """A border value that compares and indexes like 1, but that an int
    cannot subtract."""

    def __index__(self):
        return 1

    def __lt__(self, other):
        return 1 < other

    def __le__(self, other):
        return 1 <= other

    def __gt__(self, other):
        return 1 > other

    def __ge__(self, other):
        return 1 >= other


class TestChunking:
    """extend over any chunking equals per-token push and the batch result."""

    BAD_TOKENS = (-1, 0.5, "a", None)

    def chunkings(self, kind):
        rng = random.Random(f"chunk-{kind.value}")
        for n in (0, 1, 2, 40, 300, 5000) * 3:
            sigma = rng.choice((1, 2, 4, 256))
            text = [rng.randrange(sigma) for _ in range(n)]
            cuts, k = [], 0
            while k < n:
                size = rng.randint(0, 40)
                cuts.append((k, k + size))
                k += size
            yield rng, text, cuts + [(n, n)]

    @staticmethod
    def as_chunk(rng, tokens):
        # bytes and TokenSeq chunks skip the token check; the arrays must not change
        if max(tokens, default=0) < 256 and rng.random() < 0.5:
            return rng.choice((bytes, bytearray))(tokens)
        return rng.choice((list, tuple, TokenSeq))(tokens)

    @staticmethod
    def objects(kind):
        return BorderBuilder(kind), ShortestCoverArray(), LongestCoverArray()

    @staticmethod
    def generated(values):
        # a chunk with no len(), which extend reads into a list first
        yield from values

    @pytest.mark.parametrize("kind", KINDS)
    def test_extend_equals_push_and_batch(self, kind):
        for rng, text, cuts in self.chunkings(kind):
            chunked = self.objects(kind)
            for a, e in cuts:
                border = chunked[0].values
                chunked[0].extend(self.as_chunk(rng, text[a:e]))
                for arr in chunked[1:]:
                    arr.extend(border[a:e])
            pushed = self.objects(kind)
            for t in text:
                b = pushed[0].push(t)
                assert pushed[1].push(b) == pushed[1].scover[-1]
                assert pushed[2].push(b) == pushed[2].lcover[-1]
            whole = BorderBuilder(kind)
            border = whole.extend(text)
            assert border == border_array(text, kind)
            batch = (whole, shortest_cover_array(border), longest_cover_array(border))
            # whole objects: arrays, dead, counters and the private state
            for x, y, z in zip(chunked, pushed, batch):
                assert vars(x) == vars(y) == vars(z), (kind, len(text), type(x))

    @pytest.mark.parametrize("kind", KINDS)
    def test_generator_chunks_equal_list_chunks(self, kind):
        for rng, text, cuts in self.chunkings(kind):
            listed, generated = self.objects(kind), self.objects(kind)
            for a, e in cuts:
                for objs, wrap in ((listed, list), (generated, self.generated)):
                    border = objs[0].values
                    objs[0].extend(wrap(text[a:e]))
                    for arr in objs[1:]:
                        arr.extend(wrap(border[a:e]))
            for x, y in zip(listed, generated):
                assert vars(x) == vars(y), (kind, len(text), type(x))

    def check_bad_token_keeps_valid_prefix(self, kind, wrap):
        rng = random.Random(f"bad-{kind.value}")
        for bad in self.BAD_TOKENS * 8:
            text = [rng.randrange(3) for _ in range(rng.randint(0, 60))]
            k = rng.randint(0, len(text))
            j = rng.randint(0, k)
            builder = BorderBuilder(kind)
            builder.extend(text[:j])
            with pytest.raises(ValueError):
                builder.extend(wrap(text[j:k] + [bad] + text[k:]))
            prefix = BorderBuilder(kind)
            prefix.extend(text[:k])
            assert vars(builder) == vars(prefix), (kind, bad, k)
            assert builder.push(2) == prefix.push(2)
            assert vars(builder) == vars(prefix)

    @pytest.mark.parametrize("kind", KINDS)
    def test_bad_token_mid_chunk_keeps_valid_prefix(self, kind):
        self.check_bad_token_keeps_valid_prefix(kind, list)

    @pytest.mark.parametrize("kind", KINDS)
    def test_bad_token_in_generator_chunk_keeps_valid_prefix(self, kind):
        self.check_bad_token_keeps_valid_prefix(kind, self.generated)

    def check_bad_border_value_keeps_valid_prefix(self, kind, wrap):
        rng = random.Random(f"bad-border-{kind.value}")
        for _ in range(30):
            border = border_array([rng.randrange(2) for _ in range(rng.randint(1, 60))], kind)
            k = rng.randint(0, len(border))
            bad = rng.choice((-1, (border[k - 1] if k else -1) + 2, k + 1))
            j = rng.randint(0, k)
            # a non-int that passes the range check fails on its first index;
            # IndexOne indexes, but fails on the first subtraction
            for value in (bad, 0.0, 0.5, "1", None, IndexOne()):
                for cls in (ShortestCoverArray, LongestCoverArray):
                    arr = cls()
                    arr.extend(border[:j])
                    with pytest.raises(ValueError):
                        arr.extend(wrap(border[j:k] + [value] + border[k:]))
                    prefix = cls()
                    prefix.extend(border[:k])
                    assert vars(arr) == vars(prefix), (cls, k, value)
                    assert arr.push(0) == prefix.push(0)
                    assert vars(arr) == vars(prefix)

    @pytest.mark.parametrize("kind", KINDS)
    def test_bad_border_value_mid_chunk_keeps_valid_prefix(self, kind):
        self.check_bad_border_value_keeps_valid_prefix(kind, list)

    @pytest.mark.parametrize("kind", KINDS)
    def test_bad_border_value_in_generator_chunk_keeps_valid_prefix(self, kind):
        self.check_bad_border_value_keeps_valid_prefix(kind, self.generated)


class TestSharedInts:
    """Array entries come from one shared pool of ints, so an array costs a
    list slot per entry (8 bytes plus up to an eighth of over-allocation),
    not a 32-byte int object of its own for every value above 256."""

    N = 20_000
    # retained bytes per token; an int object per entry would add 32 to each
    BOUNDS = {"border": 10, "scover": 20, "lcover": 36}

    @staticmethod
    def retained(build, arg):
        """Bytes still held by build(arg)'s result, per token of arg."""
        build(arg)  # grows the shared pool to this length before the count
        tracemalloc.start()
        try:
            result = build(arg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del result
        return held / len(arg)

    @pytest.mark.parametrize("kind", (ScerKind.IDENTITY, ScerKind.PARAMETERIZED))
    @pytest.mark.parametrize("name", ("periodic", "random"))
    def test_bytes_per_token(self, name, kind):
        rng = random.Random(f"shared-{name}")
        if name == "periodic":
            text = (rng.choices(range(4), k=7) * self.N)[:self.N]
        else:
            text = rng.choices(range(4), k=self.N)
        border = border_array(text, kind)
        held = {
            "border": self.retained(lambda t: border_array(t, kind), text),
            "scover": self.retained(shortest_cover_array, border),
            "lcover": self.retained(longest_cover_array, border),
        }
        for array, bound in self.BOUNDS.items():
            assert held[array] <= bound, (array, held)

import random

import pytest
from hypothesis import given

from pbsg import (
    GeneratorSet,
    LimitExceeded,
    MemberResult,
    PartialBijection,
    all_partial_bijections,
    close,
    evaluate_word,
    member,
)
from pbsg.closure import _inverse_key, _key, _keys, _tail
from pbsg.sampling import random_partial_bijection, random_tiling_instance
from pbsg.tiling import reduce

from conftest import conjugate, pb, pbij_pairs, rename, seeded_generator_sets


def ref_closure(gens):
    """Naive fixpoint oracle: multiply sets until nothing new appears."""
    current = set(gens)
    while True:
        new = {a * g for a in current for g in gens} - current
        if not new:
            return current
        current |= new


def _cycle(n):
    return PartialBijection([(x + 1) % n for x in range(n)])


def assert_member_matches_definition(gens, clo, b):
    """``member`` against its definition over E, the closure elements whose
    domain contains dom(b), in closure order: b is found, with its closure
    word, iff its rank in E is below ``limit``; a miss raises iff E has more
    than ``limit`` elements, counting ``limit + 1``."""
    dom = b.dom()
    rank = [i for i, el in enumerate(clo) if dom <= el.dom()]
    i = clo.index_of(b)
    if i is not None:
        r = rank.index(i)
        with pytest.raises(LimitExceeded) as exc:
            member(gens, b, limit=r)
        assert exc.value.count == r + 1
        assert member(gens, b, limit=r + 1) == MemberResult(True, clo.word(i))
    else:
        assert member(gens, b, limit=len(rank)) == MemberResult(False, None)
        if rank:
            with pytest.raises(LimitExceeded) as exc:
                member(gens, b, limit=len(rank) - 1)
            assert exc.value.count == len(rank)


class TestGeneratorSet:
    def test_requires_generators(self):
        with pytest.raises(ValueError):
            GeneratorSet(2, ())

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            GeneratorSet(2, (pb("1 2 3"),))

    def test_inverse_closed_flag_is_checked(self):
        with pytest.raises(ValueError):
            GeneratorSet(2, (pb("2 _"),), inverse_closed=True)
        GeneratorSet(2, (pb("2 _"), pb("_ 1")), inverse_closed=True)
        # the first generator whose inverse is missing is named
        with pytest.raises(ValueError, match=r"^inverse_closed set but inverse of '2 _ _' missing$"):
            GeneratorSet(3, (pb("2 1 3"), pb("2 _ _"), pb("3 _ _")), inverse_closed=True)

    def test_with_inverses(self):
        g = GeneratorSet.from_elements([pb("2 _")]).with_inverses()
        assert g.inverse_closed
        assert [x.to_text() for x in g.generators] == ["2 _", "_ 1"]
        # already closed: unchanged, self-inverse elements not duplicated
        h = GeneratorSet.from_elements([pb("2 1")]).with_inverses()
        assert [x.to_text() for x in h.generators] == ["2 1"]
        assert h.with_inverses() is h

    def test_json_round_trip(self):
        g = GeneratorSet(2, (pb("2 _"), pb("_ 1")), inverse_closed=True)
        obj = g.to_json_obj()
        assert obj == {
            "degree": 2,
            "generators": [[2, None], [None, 1]],
            "inverse_closed": True,
        }
        assert GeneratorSet.from_json_obj(obj) == g

    def test_json_errors(self):
        with pytest.raises(ValueError):
            GeneratorSet.from_json_obj({"degree": 2, "generators": []})
        with pytest.raises(ValueError):
            GeneratorSet.from_json_obj({"degree": 2})


class TestClose:
    def test_identity_alone(self):
        clo = close(GeneratorSet.from_elements([PartialBijection.identity(2)]))
        assert list(clo) == [PartialBijection.identity(2)]

    def test_swap_generates_group_of_two(self):
        gens = GeneratorSet.from_elements([pb("2 1")])
        clo = close(gens)
        assert set(clo) == ref_closure(gens.generators)
        assert len(clo) == 2
        assert [clo.word(0), clo.word(1)] == [(0,), (0, 0)]
        assert clo.word(-1) == (0, 0)
        assert clo[-1] == clo.elements[1] == PartialBijection.identity(2)
        with pytest.raises(TypeError):
            clo[0:1]
        with pytest.raises(IndexError):
            clo.word(2)

    def test_shift_generates_pair(self):
        gens = GeneratorSet.from_elements([pb("2 _")])
        clo = close(gens)
        assert set(clo) == ref_closure(gens.generators) == {pb("2 _"), pb("_ _")}

    def test_matches_reference_on_random_sets(self):
        for gens in seeded_generator_sets(101, 25, degrees=(2, 3, 4)):
            clo = close(gens)
            assert set(clo) == ref_closure(gens.generators)

    def test_witnesses_evaluate_to_their_elements(self):
        for gens in seeded_generator_sets(102, 25, degrees=(2, 3, 4)):
            clo = close(gens)
            for i, el in enumerate(clo.elements):
                assert evaluate_word(gens, clo.word(i)) == el

    def test_witness_lengths_nondecreasing(self):
        for gens in seeded_generator_sets(103, 10, degrees=(3, 4)):
            clo = close(gens)
            lengths = [len(clo.word(i)) for i in range(len(clo))]
            assert lengths == sorted(lengths)

    def test_cayley_edges(self):
        for gens in seeded_generator_sets(104, 10, degrees=(2, 3)):
            clo = close(gens)
            for i, el in enumerate(clo.elements):
                for gi, g in enumerate(gens.generators):
                    assert clo.elements[clo.cayley[i][gi]] == el * g

    def test_elements_round_trip_through_their_keys(self):
        for inverse_closed in (False, True):
            for gens in seeded_generator_sets(108, 15, degrees=(2, 3, 4),
                                              inverse_closed=inverse_closed):
                clo = close(gens)
                for i, el in enumerate(clo.elements):
                    # built on access from the byte key, without validation
                    checked = PartialBijection(el.entries)
                    assert el == checked and hash(el) == hash(checked)
                    assert clo.index_of(checked) == i and clo.keys[i] == _key(checked)

    @given(pbij_pairs(max_degree=12))
    def test_codec_laws(self, pair):
        a, b = pair
        assert _key(PartialBijection._from_key(_key(a))) == _key(a)
        assert _inverse_key(_key(a)) == _key(a.inverse())
        assert _key(a).translate(_key(b) + _tail(a.degree)) == _key(a * b)

    def test_generator_keys_in_one_pass(self):
        # the keys sliced from one flat byte string are each generator's own
        rng = random.Random(434)
        for n in (*range(1, 11), 255):
            for _ in range(20 if n < 255 else 3):
                gens = [random_partial_bijection(rng, n) for _ in range(rng.randint(1, 5))]
                # repeats included
                gens += rng.choices(gens, k=rng.randint(0, 3))
                rng.shuffle(gens)
                gens = GeneratorSet(n, gens)
                assert _keys(gens) == [_key(g) for g in gens.generators]
        with pytest.raises(ValueError, match="255"):
            _keys(GeneratorSet.from_elements([_cycle(256)]))

    def test_closing_the_closure_adds_nothing(self):
        for gens in seeded_generator_sets(105, 10, degrees=(2, 3)):
            clo = close(gens)
            again = close(GeneratorSet.from_elements(clo.elements))
            assert set(again) == set(clo)

    def test_deterministic(self):
        gens = seeded_generator_sets(106, 1, degrees=(4,))[0]
        a, b = close(gens), close(gens)
        assert list(a.elements) == list(b.elements)
        assert a.parent == b.parent and a.gen_of == b.gen_of and a.cayley == b.cayley

    def test_limit_exceeded(self):
        gens = GeneratorSet.from_elements([pb("2 1")])
        with pytest.raises(LimitExceeded):
            close(gens, limit=1)
        assert len(close(gens, limit=2)) == 2

    def test_limit_counts_elements_not_generators(self):
        # two equal generators close to one element, which a limit of 1 fits
        clo = close(GeneratorSet.from_elements([pb("1 2"), pb("1 2")]), limit=1)
        assert list(clo) == [pb("1 2")]
        with pytest.raises(LimitExceeded) as exc:
            close(GeneratorSet.from_elements([pb("2 1"), pb("1 2")]), limit=1)
        assert (exc.value.limit, exc.value.count) == (1, 2)

    def test_inverse_closed_closure_is_inverse_closed(self):
        for gens in seeded_generator_sets(107, 10, degrees=(2, 3), inverse_closed=True):
            clo = close(gens)
            els = set(clo)
            assert all(e.inverse() in els for e in els)

    def test_standard_generators_of_i4_give_every_partial_bijection(self):
        gens = GeneratorSet.from_elements([pb("2 3 4 1"), pb("2 1 3 4"), pb("_ 2 3 4")])
        clo = close(gens)
        assert len(clo) == 209
        assert set(clo) == set(all_partial_bijections(4))

    def test_duplicate_generators_deduplicated(self):
        clo = close(GeneratorSet.from_elements([pb("2 1"), pb("2 1")]))
        assert len(clo) == 2


class TestMember:
    def test_generator_is_found_immediately(self):
        gens = GeneratorSet.from_elements([pb("2 _"), pb("1 _")])
        res = member(gens, pb("1 _"))
        assert res.found and res.witness == (1,)

    def test_identity_not_generated_by_shift(self):
        gens = GeneratorSet.from_elements([pb("2 _")])
        assert member(gens, PartialBijection.identity(2)) == member(gens, pb("1 2"))
        assert not member(gens, pb("1 2")).found

    def test_swap_reaches_identity(self):
        res = member(GeneratorSet.from_elements([pb("2 1")]), PartialBijection.identity(2))
        assert res.found and res.witness == (0, 0)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            member(GeneratorSet.from_elements([pb("2 1")]), pb("1 2 3"))

    def test_agrees_with_closure(self):
        for gens in seeded_generator_sets(108, 8, degrees=(3,)):
            els = set(close(gens))
            for b in all_partial_bijections(3):
                res = member(gens, b)
                assert res.found == (b in els)
                if res.found:
                    assert evaluate_word(gens, res.witness) == b

    def test_witness_is_the_closure_word(self):
        for inverse_closed in (False, True):
            for gens in seeded_generator_sets(109, 15, degrees=(2, 3, 4),
                                              inverse_closed=inverse_closed):
                clo = close(gens)
                for el in clo.elements:
                    res = member(gens, el)
                    assert res.found and res.witness == clo.word(clo.index_of(el))

    def test_misses_outside_the_closure(self):
        # the empty map alone misses the identity, the one size-1 miss of degree 1
        extra = {1: [GeneratorSet.from_elements([pb("_")])]}
        for n in (1, 2, 3):
            sizes = set()
            for gens in seeded_generator_sets(110 + n, 6, degrees=(n,)) + extra.get(n, []):
                els = set(close(gens))
                outside = [b for b in all_partial_bijections(n) if b not in els]
                for b in outside:
                    assert member(gens, b) == MemberResult(False, None)
                    sizes.add(len(b.dom()))
            assert sizes == set(range(n + 1)), n

    def test_miss_needs_only_elements_containing_the_target_domain(self):
        # the full closure (890 elements) is over the limit, but a full-domain
        # target is reached only through the 7 rotations
        gens = GeneratorSet.from_elements([_cycle(7), pb("_ 2 3 4 5 6 7")])
        with pytest.raises(LimitExceeded):
            close(gens, limit=100)
        assert member(gens, pb("2 1 3 4 5 6 7"), limit=100) == MemberResult(False, None)
        assert member(gens, _cycle(7) * _cycle(7) * _cycle(7), limit=100).found

    def test_small_domain_targets_keep_the_closure_word(self):
        gens = GeneratorSet.from_elements([_cycle(4), pb("_ 2 3 4")])
        clo = close(gens)
        small = [el for el in clo if len(el.dom()) <= 1]
        assert {len(el.dom()) for el in small} == {0, 1}
        for el in small:
            assert member(gens, el).witness == clo.word(clo.index_of(el))

    def test_degree_cap(self):
        # one byte per point, and the byte ``degree`` stands for "undefined"
        gens = GeneratorSet.from_elements([_cycle(255)])
        assert len(close(gens)) == 255
        assert member(gens, PartialBijection.identity(255)).witness == (0,) * 255
        gens = GeneratorSet.from_elements([_cycle(256)])
        with pytest.raises(ValueError, match="255"):
            close(gens)
        with pytest.raises(ValueError, match="255"):
            member(gens, _cycle(256))

    def test_matches_its_definition_on_partial_generators(self):
        misses = 0
        for gens in seeded_generator_sets(111, 40, degrees=(2, 3, 4), max_k=8):
            clo = close(gens)
            for b in clo:
                assert_member_matches_definition(gens, clo, b)
            outside = {}  # domain size -> first partial bijection outside
            for b in all_partial_bijections(gens.degree):
                if b not in clo:
                    outside.setdefault(len(b.dom()), b)
            for b in outside.values():
                assert_member_matches_definition(gens, clo, b)
            misses += len(outside)
        assert misses > 40

    def test_matches_its_definition_on_tiling_reductions(self):
        rng = random.Random(112)
        found = set()
        for _ in range(60):
            inst = random_tiling_instance(rng, rng.randint(1, 2), rng.randint(1, 2),
                                          rng.randint(1, 3))
            red = reduce(inst)
            gens = red.generator_set
            clo = close(gens)
            found.add(red.target in clo)
            for b in [red.target, *clo]:
                assert_member_matches_definition(gens, clo, b)
        assert found == {False, True}

    def test_positive_answer_can_beat_the_limit(self):
        gens = GeneratorSet.from_elements([pb("2 3 4 5 1"), pb("1 2 3 4 5")])
        assert member(gens, pb("1 2 3 4 5"), limit=2).found


def test_renaming_the_points_keeps_words_and_counts():
    # the renamed set is an isomorphic copy with the generators in the same
    # order, so the BFS reaches the same words in the same order: the closure
    # keeps its size and every word, each member witness is the same, and a
    # search that outgrows its limit stops at the same count
    rng = random.Random(434)
    limit = 3000
    seen = dict.fromkeys(("closed", "over limit", "hit", "miss", "member over limit"), 0)

    def outcome(fn, *args):
        try:
            return fn(*args, limit=limit)
        except LimitExceeded as exc:
            return exc.count

    for gens in seeded_generator_sets(434, 60, degrees=range(2, 11)):
        n = gens.degree
        perm = rng.sample(range(n), n)
        renamed = conjugate(gens, perm)
        clo, clo_renamed = outcome(close, gens), outcome(close, renamed)
        if isinstance(clo, int):
            assert clo_renamed == clo
            seen["over limit"] += 1
            targets = []
        else:
            assert len(clo_renamed) == len(clo)
            for i, el in enumerate(clo):
                assert clo_renamed.word(i) == clo.word(i)
                assert clo_renamed[i] == rename(el, perm)
            seen["closed"] += 1
            targets = rng.sample(list(clo), min(3, len(clo)))
        targets += [random_partial_bijection(rng, n) for _ in range(3)]
        for b in targets:
            hit = outcome(member, gens, b)
            assert outcome(member, renamed, rename(b, perm)) == hit
            if isinstance(hit, int):
                seen["member over limit"] += 1
            else:
                seen["hit" if hit.found else "miss"] += 1
    assert all(seen.values()), seen


def test_evaluate_word_rejects_empty():
    with pytest.raises(ValueError):
        evaluate_word(GeneratorSet.from_elements([pb("1")]), ())


def test_evaluate_word_rejects_letters_out_of_range():
    # negative letters used to wrap to the last generators, and one past the
    # end raised a bare IndexError
    gens = GeneratorSet.from_elements([pb("2 1"), pb("1 _")])
    assert evaluate_word(gens, (0, 1)) == pb("_ 1")
    for word, letter in (((-1,), "-1"), ((0, -2), "-2"), ((2,), "2")):
        with pytest.raises(ValueError, match=f"letter {letter} out of range 0..1"):
            evaluate_word(gens, word)

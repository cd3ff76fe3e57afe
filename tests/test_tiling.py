import operator
import random
from collections import Counter
from functools import reduce as fold
from itertools import combinations_with_replacement, product

import pytest

from pbsg import LimitExceeded, PartialBijection, member
from pbsg.closure import DEFAULT_LIMIT, _key, _tail, evaluate_word
from pbsg.sampling import random_tiling_instance
from pbsg.tiling import (
    MalformedWitness,
    Tile,
    TilingGrid,
    TilingInstance,
    decode_witness,
    encode_grid,
    reduce,
    roundtrip_check,
    solve_corridor_tiling,
    verify_proper_tiling,
)

ALL1 = Tile(1, 1, 1, 1)


def inst_of(tiles, colors, width):
    return TilingInstance(tuple(tiles), colors, width)


def all_tiles(c):
    return [Tile(*combo) for combo in product(range(1, c + 1), repeat=4)]


class TestTypes:
    def test_tile_validation(self):
        with pytest.raises(ValueError):
            Tile(0, 1, 1, 1)
        with pytest.raises(ValueError):
            Tile.from_json_obj({"n": 1, "e": 1, "s": 1})

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            inst_of([Tile(2, 1, 1, 1)], colors=1, width=1)
        with pytest.raises(ValueError):
            inst_of([], colors=1, width=1)

    def test_instance_json_round_trip(self):
        inst = inst_of([ALL1, Tile(1, 2, 1, 2)], colors=2, width=2)
        assert TilingInstance.from_json_obj(inst.to_json_obj()) == inst

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TilingGrid(((0,), (0, 1)))
        for cells in ([], [[]]):
            with pytest.raises(ValueError, match="nonempty"):
                TilingGrid(cells)


#: (tiles, width, cells, first violation): one grid per verdict; tiles are
#: (north, east, south, west)
VIOLATIONS = [
    # every border of the grid is wrong: the first in row-major order
    ([Tile(2, 2, 2, 2)], 2, ((0, 0), (0, 0)), ("north-border", 1, 1)),
    ([Tile(1, 1, 1, 2)], 1, ((0,),), ("west-border", 1, 1)),
    # east edge 2 beside west edge 1
    ([Tile(1, 2, 1, 1), ALL1], 1, ((0, 1),), ("east-adjacency", 1, 1)),
    ([ALL1, Tile(1, 2, 1, 1)], 1, ((0, 1),), ("east-border", 1, 2)),
    ([ALL1, Tile(1, 1, 2, 1)], 3, ((0,), (1,), (0,)), ("south-adjacency", 2, 1)),
    ([Tile(1, 1, 2, 1)], 1, ((0,),), ("south-border", 1, 1)),
]


class TestVerify:
    def test_all_one_tile(self):
        inst = inst_of([ALL1], 1, 1)
        assert verify_proper_tiling(inst, TilingGrid(((0,),))) is None

    @pytest.mark.parametrize("tiles, width, cells, verdict", VIOLATIONS,
                             ids=[verdict[0] for *_, verdict in VIOLATIONS])
    def test_first_violation(self, tiles, width, cells, verdict):
        inst = inst_of(tiles, 2, width)
        assert verify_proper_tiling(inst, TilingGrid(cells)) == verdict

    def test_grid_height_must_match(self):
        with pytest.raises(ValueError):
            verify_proper_tiling(inst_of([ALL1], 1, 2), TilingGrid(((0,),)))


class TestSolve:
    def test_single_all_one_tile(self):
        assert solve_corridor_tiling(inst_of([ALL1], 1, 1)) == TilingGrid(((0,),))

    def test_unsolvable_bottom_border(self):
        assert solve_corridor_tiling(inst_of([Tile(1, 1, 2, 1)], 2, 1)) is None

    def test_vertical_pair_single_column(self):
        top = Tile(1, 1, 2, 1)
        bottom = Tile(2, 1, 1, 1)
        grid = solve_corridor_tiling(inst_of([top, bottom], 2, 2))
        assert grid == TilingGrid(((0,), (1,)))
        assert verify_proper_tiling(inst_of([top, bottom], 2, 2), grid) is None

    def test_multi_column_solution(self):
        # east/west colors force at least two columns
        left = Tile(1, 2, 1, 1)
        right = Tile(1, 1, 1, 2)
        assert solve_corridor_tiling(inst_of([left, right], 2, 1)) == TilingGrid(((0, 1),))

    def test_wide_single_tile_corridor(self):
        # one column of 5,000 rows, and under limit 1 no room for a second;
        # each row is one step of the column's build, not a copy of the
        # rows above it
        width = 5000
        grid = solve_corridor_tiling(inst_of([ALL1], 1, width), limit=1)
        assert grid == TilingGrid(((0,),) * width)
        left, right = Tile(1, 2, 1, 1), Tile(1, 1, 1, 2)
        grid = solve_corridor_tiling(inst_of([left, right], 2, width), limit=2)
        assert grid == TilingGrid(((0, 1),) * width)

    def test_solutions_verify(self):
        rng = random.Random(501)
        solved = 0
        for _ in range(200):
            inst = random_tiling_instance(rng, rng.randint(1, 3), rng.randint(1, 3),
                                          rng.randint(1, 3))
            grid = solve_corridor_tiling(inst)
            if grid is not None:
                solved += 1
                assert verify_proper_tiling(inst, grid) is None
        assert solved > 5

    def test_shortest_and_lexicographically_least(self):
        # both tiles alone tile a 1x1 grid; the solver must pick tile 1
        inst = inst_of([ALL1, ALL1], 1, 1)
        assert solve_corridor_tiling(inst) == TilingGrid(((0,),))

    def test_shortest_grid_of_c_to_the_width_columns(self):
        # width 1, colors 1..c chained east by tiles w=i -> e=i+1 and w=c -> e=1:
        # the one grid visits every profile, so its c columns are the most any
        # shortest grid can need; without the last tile every profile is
        # expanded and the search ends unsolvable
        c = 5
        chain = [Tile(1, i % c + 1, 1, i) for i in range(1, c + 1)]
        assert solve_corridor_tiling(inst_of(chain, c, 1)) == TilingGrid((tuple(range(c)),))
        assert solve_corridor_tiling(inst_of(chain[:-1], c, 1)) is None
        with pytest.raises(LimitExceeded):
            solve_corridor_tiling(inst_of(chain, c, 1), limit=c - 1)

    def test_matches_a_brute_force_search(self):
        # the contract on instances small enough to enumerate: None exactly
        # when no proper grid of at most c^width columns exists, else the
        # shortest grid, lexicographically least column by column
        rng = random.Random(505)
        instances = [random_tiling_instance(rng, rng.randint(1, 3), rng.randint(1, 3),
                                            rng.randint(1, 4)) for _ in range(150)]
        instances += [random_tiling_instance(rng, 2, 2, rng.randint(1, 4)) for _ in range(150)]
        for _ in range(150):
            # width 1, north = south = 1, one tile leaving west 1 and none
            # from west 1 to east 1: every grid has two columns or more
            c = rng.randint(2, 4)
            tiles = [Tile(1, rng.randint(2, c), 1, 1)]
            tiles += [Tile(1, rng.randint(1, c), 1, rng.randint(2, c))
                      for _ in range(rng.randint(1, 3))]
            rng.shuffle(tiles)
            instances.append(inst_of(tiles, c, 1))
        verdicts = Counter()
        for inst in instances:
            expected = brute_force_grid(inst)
            assert solve_corridor_tiling(inst) == expected, inst.to_json_obj()
            verdicts[None if expected is None else min(expected.num_cols, 2)] += 1
        assert verdicts[None] >= 50 and verdicts[1] >= 50 and verdicts[2] >= 40, verdicts


def brute_force_grid(inst):
    """The first proper grid in order of column count, then of the columns'
    sequence, each column a tuple of tile indices read top to bottom, over
    at most c^width columns; None when there is none."""
    m, tiles, ones = inst.width, inst.tiles, (1,) * inst.width
    columns = [column for column in product(range(len(tiles)), repeat=m)
               if tiles[column[0]].north == 1 and tiles[column[-1]].south == 1
               and all(tiles[a].south == tiles[b].north for a, b in zip(column, column[1:]))]
    edges = [(tuple(tiles[j].west for j in column), tuple(tiles[j].east for j in column), column)
             for column in columns]

    def grids(profile, length):
        # the sequences of ``length`` columns from west edges ``profile`` to
        # an all-1 east border, in lexicographic order
        if not length:
            if profile == ones:
                yield ()
            return
        for west, east, column in edges:
            if west == profile:
                for rest in grids(east, length - 1):
                    yield (column, *rest)

    for length in range(1, inst.num_colors ** m + 1):
        for sequence in grids(ones, length):
            grid = TilingGrid(zip(*sequence))
            assert verify_proper_tiling(inst, grid) is None
            return grid
    return None


class TestReduce:
    def test_trivial_instance(self):
        red = reduce(inst_of([ALL1], 1, 1))
        assert red.generator_set.degree == 2
        (gen,) = red.generator_set.generators
        assert gen == PartialBijection.partial_identity(2, [0, 1])
        assert gen == red.target

    def test_target_fixes_width_plus_one_points(self):
        for m in (1, 2, 3):
            red = reduce(inst_of([ALL1], 1, m))
            assert red.target * red.target == red.target
            assert len(red.target.dom()) == m + 1

    def test_domain_sizes_match_the_wrap_rule(self):
        for c in (1, 2, 3):
            for m in (1, 2, 3):
                for tile in all_tiles(c):
                    red = reduce(inst_of([tile], c, m))
                    # one tile, so generator i is the tile in row i + 1
                    last = red.generator_set.generators[m - 1]
                    expected = (m - 1) * c + (2 if tile.south == 1 else 1)
                    assert len(last.dom()) == len(last.image()) == expected
                    if m > 1:
                        first = red.generator_set.generators[0]
                        assert len(first.dom()) == (m - 1) * c + 2

    def test_point_encoding(self):
        red = reduce(inst_of([ALL1, Tile(1, 2, 1, 2)], 2, 2))
        # (q, r) -> (q-1)*c + r in 1-based terms
        assert red.point_label(0) == (1, 1)
        assert red.point_label(3) == (2, 2)
        assert red.generator_set.degree == 8
        assert red.generator_label(2) == (2, 1)
        assert red.generator_label(1) == (1, 2)

    def test_generators_are_valid_partial_bijections(self):
        # reduce builds its maps unchecked; the validating constructor must agree
        rng = random.Random(502)
        instances = [random_tiling_instance(rng, rng.randint(1, 3), rng.randint(1, 3),
                                            rng.randint(1, 3)) for _ in range(50)]
        # every tile, so the last row has tiles whose south edge is not 1
        instances += [inst_of(all_tiles(c), c, m) for c in (1, 2, 3) for m in (1, 2, 3)]
        for inst in instances:
            red = reduce(inst)
            assert len(red.generator_set.generators) == inst.width * len(inst.tiles)
            for g in red.generator_set.generators:
                checked = PartialBijection(g.entries)
                assert checked == g and hash(checked) == hash(g)
                assert len(g.dom()) == len(g.image())

    def test_keys_are_the_views_keys(self):
        rng = random.Random(504)
        instances = [random_tiling_instance(rng, rng.randint(1, 4), rng.randint(1, 3),
                                            rng.randint(1, 6)) for _ in range(50)]
        instances += [inst_of(all_tiles(c), c, m) for c in (1, 2) for m in (1, 2, 3)]
        for inst in instances:
            red = reduce(inst)
            keys, target = red.keys
            assert keys == [_key(g) for g in red.generator_set.generators]
            assert target == _key(red.target)
            tail = _tail(red.degree)
            assert red.tables == ([key + tail for key in keys], target)

    def test_keys_refuse_degrees_past_the_closure_cap(self):
        red = reduce(inst_of([ALL1], 8, 16))  # 2 * 16 * 8 = 256 points
        assert red.generator_set.degree == red.target.degree == 256
        with pytest.raises(ValueError, match="255"):
            red.keys
        with pytest.raises(ValueError, match="255"):
            red.tables


class TestEncodeDecode:
    def test_trivial_word_round_trip(self):
        inst = inst_of([ALL1], 1, 1)
        red = reduce(inst)
        grid = TilingGrid(((0,),))
        word = encode_grid(red, grid)
        assert word == (0,)
        assert decode_witness(red, word) == grid

    def test_solver_grids_encode_to_the_target(self):
        rng = random.Random(503)
        checked = 0
        for _ in range(120):
            inst = random_tiling_instance(rng, rng.randint(1, 2), rng.randint(1, 2),
                                          rng.randint(1, 2))
            grid = solve_corridor_tiling(inst)
            if grid is None:
                continue
            red = reduce(inst)
            word = encode_grid(red, grid)
            assert evaluate_word(red.generator_set, word) == red.target
            assert decode_witness(red, word) == grid
            checked += 1
        assert checked > 10

    def test_encode_refuses_what_verify_refuses(self):
        # two all-1 tiles, width 2: a tile index out of range, or a row count
        # other than the width, raises instead of encoding some other word
        red = reduce(inst_of([ALL1, ALL1], 1, 2))
        assert encode_grid(red, TilingGrid(((1,), (0,)))) == (1, 2)
        for cells, message in ((((5,), (0,)), "tile index 5"), (((-1,), (0,)), "tile index -1"),
                               (((0,), (0,), (0,)), "grid has 3 rows"),
                               (((0,),), "grid has 1 rows")):
            with pytest.raises(ValueError, match=message):
                encode_grid(red, TilingGrid(cells))

    def test_malformed_wrong_row_order(self):
        inst = inst_of([ALL1], 1, 2)
        red = reduce(inst)
        with pytest.raises(MalformedWitness):
            decode_witness(red, (1, 0))  # starts with a row-2 generator
        for letter in (2, -1):  # two generators, 0 and 1
            with pytest.raises(MalformedWitness, match=f"letter {letter} out of range"):
                decode_witness(red, (0, letter))

    def test_malformed_wrong_length(self):
        inst = inst_of([ALL1], 1, 2)
        red = reduce(inst)
        with pytest.raises(MalformedWitness):
            decode_witness(red, (0,))

    def test_malformed_wrong_value(self):
        top = Tile(1, 1, 2, 1)
        bottom = Tile(2, 1, 1, 1)
        inst = inst_of([top, bottom], 2, 2)
        red = reduce(inst)
        # right row pattern but wrong tiles: evaluates to something else
        with pytest.raises(MalformedWitness):
            decode_witness(red, (1, 2))  # row 1 tile 2, row 2 tile 1


class TestMembershipEquivalence:
    def test_exhaustive_small(self):
        for c in (1, 2):
            tiles = all_tiles(c)
            for m in (1, 2):
                for k in (1, 2):
                    for chosen in combinations_with_replacement(tiles, k):
                        inst = inst_of(chosen, c, m)
                        report = roundtrip_check(inst, limit=100_000)
                        assert report.consistent, inst

    def test_membership_witness_decodes_to_proper_grid(self):
        top = Tile(1, 1, 2, 1)
        bottom = Tile(2, 1, 1, 1)
        inst = inst_of([top, bottom], 2, 2)
        red = reduce(inst)
        res = member(red.generator_set, red.target)
        assert res.found
        grid = decode_witness(red, res.witness)
        assert verify_proper_tiling(inst, grid) is None


def reference_roundtrip(inst, limit):
    """``roundtrip_check``'s fields composed from the public pieces, each
    word's value also checked against the product of the generators."""
    grid = solve_corridor_tiling(inst, limit)
    red = reduce(inst)
    gens, target = red.generator_set, red.target
    got = member(gens, target, limit)
    consistent = (grid is not None) == got.found
    decoded = None
    if consistent and grid is not None:
        word = encode_grid(red, grid)
        value = evaluate_word(gens, word)
        assert value == fold(operator.mul, [gens.generators[g] for g in word])
        if value != target:
            consistent = False
        else:
            try:
                decoded = decode_witness(red, got.witness)
            except MalformedWitness:
                consistent = False
            else:
                consistent = verify_proper_tiling(inst, decoded) is None
    return grid is not None, got, consistent, grid, decoded


def test_roundtrip_matches_the_public_pieces():
    # seeded instances under several limits, some of which the solver or the
    # membership search outgrows: the same report, or the same overflow
    rng = random.Random(505)
    seen = Counter()
    for _ in range(1000):
        inst = random_tiling_instance(rng, rng.randint(1, 4), rng.randint(1, 3),
                                      rng.randint(1, 6))
        limit = rng.choice([5, 50, 500, DEFAULT_LIMIT])
        try:
            want = reference_roundtrip(inst, limit)
        except LimitExceeded as exc:
            with pytest.raises(LimitExceeded) as info:
                roundtrip_check(inst, limit)
            assert (info.value.limit, info.value.count) == (exc.limit, exc.count)
            seen["limit"] += 1
            continue
        rep = roundtrip_check(inst, limit)
        assert (rep.solvable, rep.member, rep.consistent, rep.grid, rep.decoded) == want
        assert rep.consistent
        seen[rep.solvable] += 1
    assert min(seen[True], seen[False], seen["limit"]) > 50, seen


def test_roundtrip_refuses_the_cap_before_solving_or_reducing(monkeypatch):
    # 2 * 2 * 64 = 256 points: the cap is read off the instance, so neither
    # the solver nor the reduction's maps run for a degree the keys refuse
    from pbsg import tiling

    def unreached(*args, **kwargs):
        raise AssertionError("ran past the closure cap")

    monkeypatch.setattr(tiling, "solve_corridor_tiling", unreached)
    monkeypatch.setattr(tiling, "reduce", unreached)
    inst = inst_of([Tile(1, 1, 2, 1), Tile(2, 1, 1, 1)], 64, 2)
    with pytest.raises(ValueError, match="degree 256 exceeds the closure cap of 255"):
        roundtrip_check(inst)

"""Corridor tiling: instances, a complete solver, and the compilation to an
idempotent-membership question.

A corridor instance is a finite set of square tiles with colored edges and a
row count m; it asks for some number of columns forming a grid whose adjacent
edges match and whose outer border is all color 1.  The compilation produces
one partial bijection per (row, tile) pair acting on 2*m*c points (pairs
(q, r) with q in [2m] and r in [c], flattened as (q-1)*c + r in 1-based
terms) plus a target idempotent fixing {(1,1)} and {(m+p, 1) : p in [m]}.
The instance is tilable exactly when the target is a product of the
generators, and a membership witness decodes column by column back into a
grid.  Within the closure's cap the reduction writes each generator as its
translate table (``closure._tables``), and the round trip searches,
evaluates words and decodes on those tables, building no PartialBijection.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .closure import (DEFAULT_LIMIT, MAX_DEGREE, GeneratorSet, LimitExceeded, MemberResult,
                      _evaluate, _member, _tail)
from .pbij import PartialBijection, ValueType


class MalformedWitness(ValueError):
    """A membership word that does not factor into row-ordered columns."""


class Tile(ValueType):
    """Edge colors, clockwise from the top: north, east, south, west."""

    __slots__ = ("north", "east", "south", "west")

    def __init__(self, north: int, east: int, south: int, west: int):
        for value in (north, east, south, west):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"edge color {value!r} must be a positive integer")
        self.north = north
        self.east = east
        self.south = south
        self.west = west

    @classmethod
    def from_json_obj(cls, obj) -> "Tile":
        if not isinstance(obj, dict) or set(obj) != {"n", "e", "s", "w"}:
            raise ValueError('expected a tile object {"n":..,"e":..,"s":..,"w":..}')
        return cls(obj["n"], obj["e"], obj["s"], obj["w"])

    def to_json_obj(self) -> dict:
        return {"n": self.north, "e": self.east, "s": self.south, "w": self.west}


class TilingInstance(ValueType):
    """Tiles, palette size, and ``width``: the rows in every grid."""

    __slots__ = ("tiles", "num_colors", "width")

    def __init__(self, tiles: Sequence[Tile], num_colors: int, width: int):
        tiles = tuple(tiles)
        if not tiles:
            raise ValueError("at least one tile required")
        for name, value in (("colors", num_colors), ("width", width)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} {value!r} must be a positive integer")
        for t in tiles:
            for value in (t.north, t.east, t.south, t.west):
                if value > num_colors:
                    raise ValueError(f"color {value} exceeds palette size {num_colors}")
        self.tiles = tiles
        self.num_colors = num_colors
        self.width = width

    @classmethod
    def from_json_obj(cls, obj) -> "TilingInstance":
        if not isinstance(obj, dict) or not {"colors", "width", "tiles"} <= set(obj):
            raise ValueError('expected {"colors": c, "width": m, "tiles": [...]}')
        if not isinstance(obj["tiles"], list):
            raise ValueError("tiles must be a list of tile objects")
        tiles = tuple(Tile.from_json_obj(t) for t in obj["tiles"])
        return cls(tiles, obj["colors"], obj["width"])

    def to_json_obj(self) -> dict:
        return {
            "colors": self.num_colors,
            "width": self.width,
            "tiles": [t.to_json_obj() for t in self.tiles],
        }


class TilingGrid(ValueType):
    """Row-major grid of 0-based tile indices; rows = instance width."""

    __slots__ = ("cells",)

    def __init__(self, cells: Sequence[Sequence[int]]):
        cells = tuple(tuple(row) for row in cells)
        if not cells or not cells[0]:
            raise ValueError("grid must be nonempty")
        if any(len(row) != len(cells[0]) for row in cells):
            raise ValueError("grid rows must have equal length")
        self.cells = cells

    @property
    def num_cols(self) -> int:
        return len(self.cells[0])


def _check_grid(grid: TilingGrid, width: int, num_tiles: int) -> None:
    """Raise ``ValueError`` unless ``grid`` has ``width`` rows of tiles 0..num_tiles-1."""
    if len(grid.cells) != width:
        raise ValueError(f"grid has {len(grid.cells)} rows, instance width is {width}")
    for row in grid.cells:
        for idx in row:
            if not 0 <= idx < num_tiles:
                raise ValueError(f"tile index {idx} out of range")


def verify_proper_tiling(inst: TilingInstance, grid: TilingGrid) -> Optional[tuple[str, int, int]]:
    """Check every border and adjacency equation: None for a proper grid,
    else the first failure in row-major order (within a cell: north, west,
    east, south) as ``(condition, row, col)``, 1-based."""
    _check_grid(grid, inst.width, len(inst.tiles))
    m, tiles, ncols = inst.width, inst.tiles, grid.num_cols
    for i in range(m):
        for j in range(ncols):
            t = tiles[grid.cells[i][j]]
            if i == 0 and t.north != 1:
                return ("north-border", 1, j + 1)
            if j == 0 and t.west != 1:
                return ("west-border", i + 1, 1)
            if j + 1 < ncols:
                if t.east != tiles[grid.cells[i][j + 1]].west:
                    return ("east-adjacency", i + 1, j + 1)
            elif t.east != 1:
                return ("east-border", i + 1, j + 1)
            if i + 1 < m:
                if t.south != tiles[grid.cells[i + 1][j]].north:
                    return ("south-adjacency", i + 1, j + 1)
            elif t.south != 1:
                return ("south-border", i + 1, j + 1)
    return None


def solve_corridor_tiling(inst: TilingInstance, limit: int = DEFAULT_LIMIT) -> Optional[TilingGrid]:
    """Complete decision by reachability over east-edge color profiles.

    Vertically consistent columns (internal edges matching, all-1 top and
    bottom) are edges from their west profile to their east profile; the
    instance is solvable iff the all-1 profile reaches itself in >= 1 steps.
    Returns None when it does not, else the grid that is lexicographically
    least among the shortest, comparing column by column, each column read
    top to bottom.  Each profile is expanded at most once, so the search
    ends within c^width levels.  A profile's columns are counted when the
    search first expands it, then built one at a time, each in O(width), as
    the search takes them: more than ``limit`` columns counted in all raise
    LimitExceeded.
    """
    m = inst.width
    souths = [t.south for t in inst.tiles]
    easts = [t.east for t in inst.tiles]
    by_west: dict = {}  # west color -> north color -> tile indices, ascending
    for j, t in enumerate(inst.tiles):
        by_west.setdefault(t.west, {}).setdefault(t.north, []).append(j)
    built = 0
    target = (1,) * m
    parent: dict = {target: None}
    frontier = [target]
    while frontier:
        nxt = []
        for profile in frontier:
            # fits[a]: north color of row a -> the tiles, ascending, that fit
            # row a there and leave rows a+1..m-1 some filling; ways: north
            # color of the row -> count of fillings from it down.  Below the
            # last row the south border asks for color 1
            fits = [None] * m
            ways = {1: 1}
            for a in range(m - 1, -1, -1):
                fit, way = {}, {}
                for north, js in by_west.get(profile[a], {}).items():
                    ok, count = [], 0
                    for j in js:
                        below = ways.get(souths[j])
                        if below:
                            ok.append(j)
                            count += below
                    if ok:
                        fit[north], way[north] = ok, count
                fits[a], ways = fit, way
            built += ways.get(1, 0)
            if built > limit:
                raise LimitExceeded(limit, built, f"tiling needs at least {built} columns, "
                                                  f"over the limit of {limit}")
            # the columns with west edges ``profile``, depth first, tiles in
            # index order, so in product order; every tile taken has a
            # filling below it, so each step down leads to a column, and a
            # column costs O(m): at most m steps and one tuple of east edges
            combo, pending = [], [iter(fits[0].get(1, ()))]
            while pending:
                j = next(pending[-1], None)
                if j is None:  # row len(pending) - 1 is done: back up one row
                    pending.pop()
                    if combo:
                        combo.pop()
                    continue
                combo.append(j)
                if len(combo) < m:
                    pending.append(iter(fits[len(combo)][souths[j]]))
                    continue
                east = tuple(map(easts.__getitem__, combo))
                if east == target:
                    columns = [combo]
                    while parent[profile] is not None:
                        profile, column = parent[profile]
                        columns.append(column)
                    return TilingGrid(zip(*reversed(columns)))  # transposed into rows
                if east not in parent:
                    parent[east] = (profile, tuple(combo))
                    nxt.append(east)
                combo.pop()
        frontier = nxt
    return None


class ReducedInstance:
    """The compiled membership question for one corridor instance.

    Generators are ordered row-major over (row i, tile j): index
    (i-1)·k + (j-1).  The degree is 2·width·colors.  Each generator is kept
    as ``maps[i]``, and the target as ``target_map``: its images, the degree
    standing for "undefined" (``embed`` without its extra point).  Up to the
    closure's cap these are byte strings, a generator's followed by ``_tail``
    into its translate table.  ``generator_set``, ``target`` and, up to the
    cap, ``keys`` are sliced from them when asked for.
    """

    __slots__ = ("width", "num_colors", "num_tiles", "maps", "target_map")

    def __init__(self, width: int, num_colors: int, num_tiles: int,
                 maps: list[Sequence[int]], target_map: Sequence[int]):
        self.width = width
        self.num_colors = num_colors
        self.num_tiles = num_tiles
        self.maps = maps
        self.target_map = target_map

    @property
    def degree(self) -> int:
        return len(self.target_map)

    @property
    def generator_set(self) -> GeneratorSet:
        n = self.degree
        return GeneratorSet(n, [PartialBijection._from_key(e[:n]) for e in self.maps])

    @property
    def target(self) -> PartialBijection:
        return PartialBijection._from_key(self.target_map)

    @property
    def tables(self) -> tuple[list[bytearray], bytes]:
        """The generators' translate tables, ``maps`` itself, and the
        target's key; degrees above the closure's cap raise its ValueError."""
        _tail(self.degree)
        return self.maps, self.target_map

    @property
    def keys(self) -> tuple[list[bytes], bytes]:
        """The generators' byte keys, sliced from ``tables``, and the target's."""
        tables, target = self.tables
        return [bytes(t[:len(target)]) for t in tables], target

    def generator_label(self, index: int) -> tuple[int, int]:
        """1-based (row, tile) of a generator index."""
        return index // self.num_tiles + 1, index % self.num_tiles + 1

    def point_label(self, flat: int) -> tuple[int, int]:
        """1-based (q, r) pair of a 0-based flat point."""
        return flat // self.num_colors + 1, flat % self.num_colors + 1


def _degree(inst: TilingInstance) -> int:
    """The points of the reduction: 2·width·colors."""
    return 2 * inst.width * inst.num_colors


def reduce(inst: TilingInstance) -> ReducedInstance:
    """Compile the instance into generators and a target idempotent.

    The generator for (row i, tile j) advances the column-checking point
    (i, north) to (i+1, south), wrapping to (1, 1) at the last row when the
    south edge is 1; recolors the row-checking point (m+i, west) to
    (m+i, east); and fixes every point of the other row-checking blocks.
    Domain and image sizes are (m-1)*c + 2, except (m-1)*c + 1 for last-row
    tiles whose south edge is not 1.  The 1-based pair (q, r) is the 0-based
    flat point (q-1)*c + r-1.  TilingInstance bounds every color by c, and
    each map moves one point into the next column block (or to point 0), one
    point within its own row block and fixes the rest: it is injective and
    in range, so it is built without re-validation, as a copy of its row's
    template with at most two images set; up to the closure's cap the
    template carries ``closure._tail``, so that copy is the map's table.
    """
    m, c, k = inst.width, inst.num_colors, len(inst.tiles)
    npts = _degree(inst)  # also the image of an undefined point
    # column-checking points undefined, every row-checking point fixed
    fixed = [npts] * (m * c) + list(range(m * c, npts))
    target = [npts] * npts
    for q in [0] + [(m + i) * c for i in range(m)]:
        target[q] = q
    if npts <= MAX_DEGREE:
        fixed, target = bytearray(fixed) + _tail(npts), bytes(target)
    maps = []
    for i in range(m):
        row = (m + i) * c  # flat point (m+i+1, 1): row i's row-checking block
        template = fixed.copy()
        template[row:row + c] = [npts] * c
        for tile in inst.tiles:
            images = template.copy()
            if i < m - 1:
                images[i * c + tile.north - 1] = (i + 1) * c + tile.south - 1
            elif tile.south == 1:
                images[i * c + tile.north - 1] = 0
            images[row + tile.west - 1] = row + tile.east - 1
            maps.append(images)
    return ReducedInstance(m, c, k, maps, target)


def encode_grid(reduced: ReducedInstance, grid: TilingGrid) -> tuple[int, ...]:
    """The column-major word whose value is the target, for a proper grid; a
    grid ``verify_proper_tiling`` cannot read raises its ``ValueError``."""
    _check_grid(grid, reduced.width, reduced.num_tiles)
    k = reduced.num_tiles
    return tuple(row * k + idx for column in zip(*grid.cells) for row, idx in enumerate(column))


def decode_witness(reduced: ReducedInstance, word) -> TilingGrid:
    """Read a membership witness back into a grid.

    Any word evaluating to the target factors into blocks of ``width``
    letters, the t-th letter of each block using row t; anything else raises
    MalformedWitness.  The value is compared on the reduction's translate
    tables, so degrees above the closure's cap raise its ValueError.
    """
    m, k = reduced.width, reduced.num_tiles
    word = tuple(word)
    if not word or len(word) % m:
        raise MalformedWitness(
            f"witness length {len(word)} is not a positive multiple of {m}"
        )
    ncols = len(word) // m
    cells = [[0] * ncols for _ in range(m)]
    for t, g in enumerate(word):
        if not 0 <= g < m * k:
            raise MalformedWitness(f"letter {g} out of range")
        row, tile = divmod(g, k)
        if row != t % m:
            raise MalformedWitness(
                f"letter {t + 1} uses row {row + 1}, expected row {t % m + 1}"
            )
        cells[row][t // m] = tile
    tables, target = reduced.tables
    if _evaluate(tables, len(target), word) != target:
        raise MalformedWitness("word does not evaluate to the target idempotent")
    return TilingGrid(cells)


class RoundtripReport:
    """The membership answer, whether it agrees with the solver's ``grid``
    (None when unsolvable), and the grid its witness decodes to."""

    __slots__ = ("member", "consistent", "grid", "decoded")

    def __init__(self, member: MemberResult, consistent: bool,
                 grid: Optional[TilingGrid] = None, decoded: Optional[TilingGrid] = None):
        self.member = member
        self.consistent = consistent
        self.grid = grid
        self.decoded = decoded

    @property
    def solvable(self) -> bool:
        return self.grid is not None


def roundtrip_check(inst: TilingInstance, limit: int = DEFAULT_LIMIT) -> RoundtripReport:
    """Run solver and membership on one instance and confront the two.

    Consistency means: equal verdicts; and on solvable instances the solver
    grid's word evaluates to the target while the membership witness decodes
    to a proper grid.  ``report.member`` is what ``member`` gives the
    reduction's views, found here on its translate tables: degrees above
    the closure's cap raise its ValueError before the solver runs or the
    reduction is built.
    """
    _tail(_degree(inst))
    grid = solve_corridor_tiling(inst, limit)
    reduced = reduce(inst)
    tables, target = reduced.tables
    got = _member(tables, target, limit)
    consistent = (grid is not None) == got.found
    decoded = None
    if consistent and grid is not None:
        if _evaluate(tables, len(target), encode_grid(reduced, grid)) != target:
            consistent = False
        else:
            try:
                decoded = decode_witness(reduced, got.witness)
            except MalformedWitness:
                consistent = False
            else:
                consistent = verify_proper_tiling(inst, decoded) is None
    return RoundtripReport(got, consistent, grid, decoded)

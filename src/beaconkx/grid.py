"""Uniform cell grid for fixed-range neighbour queries on the plane.

Nodes are bucketed into square cells a little wider than the radio
range, so every node within range of another lies in the 3 x 3 block of
cells around it: the cell list of molecular dynamics (Allen & Tildesley,
*Computer Simulation of Liquids*, 1987, section 5.3.2). The block is a
superset; callers still apply the exact distance test, so a query
returns exactly what a brute-force scan over every node would.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

# Python's float floor division returns the exact floor of the exact
# quotient while that floor stays below 2**50 in magnitude. Past it a
# key can be one off (at range 0.7, two points 0.5 apart near 2.9e15 get
# keys two apart), so keys past 2**49 send every node to a single cell,
# which is the brute-force scan.
_MAX_KEY = 2.0 ** 49

_SINGLE_CELL = (0.0, 0.0)


def cell_side(radio_range: float) -> float:
    """Side of a grid cell for ``radio_range``.

    A pair is in range when ``math.dist(a, b) <= radio_range``.
    That bounds each rounded coordinate difference by the range, so the
    exact difference is at most ``radio_range * (1 + 2**-53)``, or the
    range itself where the difference is subnormal and thus exact. A
    side 1e-9 wider than the range, far above rounding, keeps the exact
    difference within one side, and with it the floors of the two
    coordinates over the side at most one apart. Where the margin rounds
    away (``5e-324 * (1 + 1e-9) == 5e-324``) the side still equals the
    range, which suffices for exact differences; where it overflows to
    infinity every key is 0 or -1.
    """
    return radio_range * (1 + 1e-9)


class CellGrid:
    """Node ids bucketed by cell, for queries at one radio range."""

    def __init__(self, radio_range: float) -> None:
        self._side = cell_side(radio_range)
        self._cells: dict[tuple[float, float], list[int]] = {}
        self._cell_of: dict[int, tuple[float, float]] = {}

    def rebuild(self, points: Iterable[tuple[int, tuple[float, float]]]) -> None:
        """Re-bucket every ``(node_id, (x, y))``; O(N)."""
        points = list(points)
        self._cells = cells = {}
        self._cell_of = cell_of = {}
        for (node_id, _), key in zip(points, self._keys(points)):
            cell_of[node_id] = key
            cells.setdefault(key, []).append(node_id)

    def _keys(self, points: list[tuple[int, tuple[float, float]]]) -> list[tuple[float, float]]:
        side = self._side
        if side > 0:  # a zero or NaN range has no cells to speak of
            keys = [(x // side, y // side) for _, (x, y) in points]
            if all(abs(kx) <= _MAX_KEY and abs(ky) <= _MAX_KEY for kx, ky in keys):
                return keys
        return [_SINGLE_CELL] * len(points)

    def block(self, node_id: int) -> list[int]:
        """Ids in the 3 x 3 block of cells around ``node_id``, itself included."""
        kx, ky = self._cell_of[node_id]
        cells = self._cells
        found: list[int] = []
        for dx in (-1.0, 0.0, 1.0):
            for dy in (-1.0, 0.0, 1.0):
                members = cells.get((kx + dx, ky + dy))
                if members:
                    found.extend(members)
        return found


def pairs_in_range(points: Mapping[int, tuple[float, float]],
                   radio_range: float) -> list[tuple[int, int]]:
    """Every pair ``(a, b)``, ``a < b``, no farther apart than the range."""
    grid = CellGrid(radio_range)
    grid.rebuild(points.items())
    pairs = []
    for a, pos in points.items():
        for b in grid.block(a):
            if b > a and math.dist(pos, points[b]) <= radio_range:
                pairs.append((a, b))
    return pairs

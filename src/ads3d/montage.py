"""Mapping between 64 scalp channels and a dense 8x8 grid.

The grid lets 3D convolutions see a gap-free spatial layout instead of a
scattered electrode cloud. The assignment is data, not code: computation is
map-agnostic and channels are always resolved by name (case-insensitive),
never by recording order: training.align_to_montage puts them in the map's
row-major cell order (channel_names), which the model reshapes onto the grid.

File format: '#' comment lines ignored, then exactly 64 lines
``row col name`` with row/col in 0..7.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from importlib import resources

GRID_SIDE = 8

# Acquisition-style channel order (front to back, left to right within a row).
CHANNEL_NAMES_64 = (
    "Fp1", "Fp2",
    "AF7", "AF3", "AFz", "AF4", "AF8",
    "F7", "F5", "F3", "F1", "Fz", "F2", "F4", "F6", "F8",
    "FT9", "FT7", "FC5", "FC3", "FC1", "FC2", "FC4", "FC6", "FT8", "FT10",
    "T7", "C5", "C3", "C1", "Cz", "C2", "C4", "C6", "T8",
    "TP9", "TP7", "CP5", "CP3", "CP1", "CPz", "CP2", "CP4", "CP6", "TP8", "TP10",
    "P7", "P5", "P3", "P1", "Pz", "P2", "P4", "P6", "P8",
    "PO7", "PO3", "POz", "PO4", "PO8",
    "O1", "Oz", "O2", "Iz",
)

# Midline channels that are allowed off their nominal diagonal slot because
# they cover the reference/ground gaps at the front of the cap.
SHIFTED_MIDLINE = ("AFz", "Fz")


class MontageError(ValueError):
    """Invalid montage description."""


@dataclass(frozen=True)
class MontageMap:
    """Bijection between grid cells and channel names."""

    grid: tuple[tuple[str, ...], ...]   # grid[row][col] -> name

    def __post_init__(self):
        side = len(self.grid)
        if any(len(row) != side for row in self.grid):
            raise MontageError("grid must be square")
        names = [n for row in self.grid for n in row]
        if len(set(n.lower() for n in names)) != len(names):
            raise MontageError("duplicate channel in grid")

    @property
    def side(self) -> int:
        return len(self.grid)

    @property
    def n_channels(self) -> int:
        return self.side * self.side

    @property
    def channel_names(self) -> tuple[str, ...]:
        """Row-major cell order."""
        return tuple(n for row in self.grid for n in row)

    def check_midline(self):
        """Warn about midline ('...z') channels off the main diagonal."""
        shifted = {n.lower() for n in SHIFTED_MIDLINE}
        for r, row in enumerate(self.grid):
            for c, n in enumerate(row):
                if n.lower().endswith("z") and r != c and n.lower() not in shifted:
                    warnings.warn(
                        f"midline channel {n} at ({r}, {c}) is off the diagonal",
                        stacklevel=3,
                    )


def _from_cells(cells, side: int) -> MontageMap:
    seen_cells = {}
    grid = [[None] * side for _ in range(side)]
    for row, col, name in cells:
        if not (0 <= row < side and 0 <= col < side):
            raise MontageError(f"cell ({row}, {col}) out of 0..{side - 1}")
        if (row, col) in seen_cells:
            raise MontageError(f"duplicate cell ({row}, {col})")
        seen_cells[(row, col)] = name
        grid[row][col] = name
    return MontageMap(grid=tuple(tuple(row) for row in grid))


def parse_montage(text: str, side: int = GRID_SIDE) -> MontageMap:
    cells = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise MontageError(f"line {lineno}: expected 'row col name'")
        try:
            row, col = int(parts[0]), int(parts[1])
        except ValueError:
            raise MontageError(f"line {lineno}: row/col must be integers") from None
        cells.append((row, col, parts[2]))
    if len(cells) != side * side:
        raise MontageError(f"expected {side * side} entries, got {len(cells)}")
    montage = _from_cells(cells, side)
    montage.check_midline()
    return montage


def load_montage(path) -> MontageMap:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_montage(fh.read())


def default_montage() -> MontageMap:
    """The 8x8 map shipped with the package (data/montage_8x8.txt)."""
    text = resources.files("ads3d").joinpath("data/montage_8x8.txt").read_text("utf-8")
    return parse_montage(text)


def reduced_montage_4x4() -> MontageMap:
    """16-channel 4x4 map for scaled-down test models; a subset of the
    64-channel set with occipital and prefrontal sites preserved."""
    grid = (
        ("AFz", "Fp1", "F3", "C3"),
        ("Fp2", "Fz", "P3", "PO3"),
        ("F4", "P4", "Pz", "O1"),
        ("C4", "PO4", "O2", "Oz"),
    )
    return MontageMap(grid=grid)

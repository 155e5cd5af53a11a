"""The solver-agnostic model container: `MilpModel` and its `RowBlock`s.

The formulation builders in `models` make these models, `lp` writes and
reads them as LP text, and `lpsolve` hands them to HiGHS. This module holds
only the container, its row-sense rule and its errors, so the LP writer and
reader load none of the builders, the preprocessing or the graph code.

Column j of a model is `variables[j]`. Its rows live in `RowBlock`s, one
per constraint family (and, for `rep`, per vertex, to keep the textbook row
order): integer column indices, coefficients and row bounds in
compressed-row arrays, with the family tag. Row names (`edge_{u}_{v}_{i}`,
...) are formatted only when asked for, by `emit_lp` and
`models.check_feasible`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

if TYPE_CHECKING:
    from .graph import Graph

VALUE_TOLERANCE = 1e-6

INF = float("inf")


class ModelError(ValueError):
    pass


class FixingConflictError(ModelError):
    """A variable would be fixed to two different values."""


class ExtractionError(ModelError):
    """Solver values do not decode to a coloring (corrupt or non-integral)."""


@dataclass(frozen=True, eq=False)
class RowBlock:
    """Rows of one constraint family, compressed by row over column indices.

    Row r has the terms cols[indptr[r]:indptr[r + 1]] with the matching
    coefs, and reads lo[r] <= activity <= hi[r]: lo == hi for an equality,
    one infinite side for an inequality. `names()` formats the row names
    on demand.
    """

    family: str
    indptr: np.ndarray
    cols: np.ndarray
    coefs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    names: Callable[[], list[str]]

    def __len__(self) -> int:
        return len(self.lo)


def row_sense(lo: float, hi: float) -> tuple[str, float]:
    """The LP sense and right-hand side of a row with bounds lo <= . <= hi."""
    if lo == hi:
        return "=", lo
    if lo == -INF:
        return "<=", hi
    return ">=", lo


@dataclass(frozen=True, eq=False)
class MilpModel:
    """Minimization model over named columns, rows in blocks, constant offset.

    The first `num_binary` columns are binary (bounds 0..1 unless `bounds`
    says otherwise, within [0, 1]), the rest continuous (0..+inf unless
    bounded). `fixings` is derived once: the `bounds` with lo == hi. Built
    models are all-binary minimizations bounded only by clique fixings;
    `lp.parse_lp` may also give general bounds, continuous columns and a
    maximization.
    """

    kind: str
    variables: tuple[str, ...]
    blocks: tuple[RowBlock, ...]
    objective: tuple[tuple[str, float], ...]
    offset: float
    meta: Mapping[str, object]
    num_binary: int
    bounds: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    minimize: bool = True
    columns: Mapping[str, int] = field(init=False, repr=False)
    fixings: Mapping[str, float] = field(init=False, repr=False)

    def __post_init__(self):
        columns = {name: j for j, name in enumerate(self.variables)}
        if len(columns) != len(self.variables):
            raise ModelError("duplicate variable names")
        object.__setattr__(self, "columns", columns)
        for block in self.blocks:
            if len(block.cols) and not (0 <= block.cols.min() and
                                        block.cols.max() < len(columns)):
                raise ModelError(f"{block.family} rows reference a column outside "
                                 f"0..{len(columns) - 1}")
        for name, _ in self.objective:
            if name not in columns:
                raise ModelError(f"objective references unknown {name}")
        for name, (lo, hi) in self.bounds.items():
            if name not in columns:
                raise ModelError(f"bound references unknown {name}")
            if columns[name] < self.num_binary and not (0 <= lo <= 1 and 0 <= hi <= 1):
                raise ModelError(f"binary {name} has bounds {lo:g}..{hi:g} outside [0, 1]")
        object.__setattr__(self, "fixings", {name: lo for name, (lo, hi) in self.bounds.items()
                                             if lo == hi})

    @property
    def graph(self) -> Graph:
        return self.meta["graph"]  # type: ignore[return-value]

    @property
    def num_rows(self) -> int:
        return sum(len(block) for block in self.blocks)

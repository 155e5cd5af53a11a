"""Shared Hypothesis profile, fixtures directory, row readers, the instance with
its clique bound only, the model with H colors, NullAdapter double and
fresh-interpreter runner."""
import json
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import chromatic
from chromatic import bench
from chromatic.backend import RawSolve, SolveStatus
from chromatic.container import RowBlock, row_sense
from chromatic.graph import Coloring
from chromatic.models import MilpModel, ModelError, build_formulation, objective_value
from ground_truth import check_feasible, chromatic_number_exact, encode_coloring

settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

PACKAGE_ROOT = str(Path(chromatic.__file__).resolve().parents[1])


def fresh(code: str):
    """Run `code` in a new interpreter that imports this package copy; return
    what it printed last, as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys; sys.path.insert(0, {PACKAGE_ROOT!r})\n{code}"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def pytest_addoption(parser):
    parser.addoption("--fixtures-dir", default=None,
                     help="directory with reference DIMACS instances (mug100_*.col)")


@pytest.fixture(scope="session")
def fixtures_dir(request):
    import pathlib
    override = request.config.getoption("--fixtures-dir")
    if override:
        return pathlib.Path(override)
    return pathlib.Path(__file__).parent / "fixtures"


# a block of no row, standing in for the blocks of a model every row of which settles
NO_ROWS = RowBlock("none", indptr=np.zeros(1, dtype=np.int64), cols=np.zeros(0, dtype=np.int64),
                   coefs=np.zeros(0), lo=np.zeros(0), hi=np.zeros(0), names=list)


def stacked_arrays(m: MilpModel) -> tuple[np.ndarray, ...]:
    """All blocks end to end: row widths, columns, coefficients, lo, hi."""
    parts = zip(*((np.diff(b.indptr), b.cols, b.coefs, b.lo, b.hi)
                  for b in m.blocks or (NO_ROWS,)))
    return tuple(np.concatenate(part) for part in parts)


def stacked_rows(m: MilpModel) -> tuple[list, ...]:
    """All blocks end to end: row names, row widths, columns, coefficients, lo, hi."""
    return ([name for b in m.blocks for name in b.names()],
            *(part.tolist() for part in stacked_arrays(m)))


def row(m: MilpModel, name: str):
    """The (variable, coefficient) terms, sense and right-hand side of one named row."""
    names, widths, cols, coefs, lo, hi = stacked_rows(m)
    r = names.index(name)
    span = slice(sum(widths[:r]), sum(widths[:r + 1]))
    return tuple(zip([m.variables[j] for j in cols[span]], coefs[span])), *row_sense(lo[r], hi[r])


def family_rows(m: MilpModel, family: str) -> int:
    return sum(len(b) for b in m.blocks if b.family == family)


def clique_bound_only(inst):
    """`inst` with the clique's bound |Q| as its lower bound, the bound it had
    before `preprocess_pipeline` propagated the clique's colors. A graph those
    colors settle at H then still builds its models one color below H, so a
    test of a formulation or a solver route keeps its graph."""
    return replace(inst, lower_bound=len(inst.clique))


@pytest.fixture
def clique_bound_pipeline(monkeypatch):
    """Let `bench` preprocess with the clique's bound only (`clique_bound_only`),
    so that a graph whose clique colors propagate to a conflict still reaches
    the solver."""
    real = bench.preprocess_pipeline
    monkeypatch.setattr(bench, "preprocess_pipeline",
                        lambda g, **kw: clique_bound_only(real(g, **kw)))


def one_color_worse(inst):
    """A stub of `inst` whose bound is one color worse, H + 1. It keeps its
    H-coloring, so a run that wrongly proves chi = H + 1 reports a coloring
    with fewer colors than that."""
    return replace(inst, upper_bound=inst.upper_bound + 1)


def build_with_h_colors(kind: str, inst) -> MilpModel:
    """What `build_formulation` builds for `one_color_worse(inst)`: the four
    color-indexed models with H colors, and `rep` with at most H
    representatives. Its optimum is chi, also on a settled instance, so
    tests of a formulation itself solve this model. The program builds one
    color lower (H - 1)."""
    return build_formulation(kind, one_color_worse(inst))


@dataclass(frozen=True)
class NullAdapter:
    """Oracle-backed solver double for tiny models built by this package.

    It computes the chromatic number exactly, permutes the witness coloring
    onto any clique precolors (anchor to the top color for the
    partial-ordering family), encodes it into the formulation's variables,
    checks the encoding against every row, and reports it as optimal.
    """

    cap: int = 16
    name: str = "null"

    def solve_model(self, model: MilpModel, lp_path: Path | None, time_limit: float,
                    seed: int, workdir: Path | None) -> RawSolve:
        g = model.graph
        if g.n > self.cap:
            raise ValueError(f"null adapter handles at most {self.cap} vertices, got {g.n}")
        oracle = chromatic_number_exact(g, cap=self.cap)
        chi = oracle.chi
        upper = model.meta.get("upper_bound")
        if isinstance(upper, int) and chi > upper:
            return RawSolve(SolveStatus.INFEASIBLE, None, None, None,
                            log=f"chromatic number {chi} exceeds color bound {upper}")
        coloring = self._align(model, oracle.witness, chi)
        values = encode_coloring(model, coloring)
        violated = check_feasible(model, values)
        if violated:
            raise ModelError(f"oracle encoding violated {violated[:5]}")
        raw_obj = objective_value(model, values) - model.offset
        return RawSolve(SolveStatus.OPTIMAL, raw_obj, raw_obj, dict(values), log="oracle")

    def _align(self, model: MilpModel, witness: Coloring, chi: int) -> Coloring:
        clique = tuple(model.meta.get("clique") or ())
        anchor = model.meta.get("anchor")
        targets: dict[int, int] = {}
        if model.fixings and model.kind in ("ass-s", "ass", "pop", "pop2"):
            others = tuple(v for v in sorted(clique) if v != anchor)
            for k, u in enumerate(others, start=1):
                targets[witness.colors[u]] = k
            if isinstance(anchor, int):
                targets[witness.colors[anchor]] = len(clique) if model.kind in ("ass-s", "ass") else chi
        elif model.kind in ("pop", "pop2") and isinstance(anchor, int):
            targets[witness.colors[anchor]] = chi
        if not targets:
            return witness
        free_targets = [c for c in range(1, chi + 1) if c not in targets.values()]
        mapping = dict(targets)
        for c in range(1, chi + 1):
            if c not in mapping:
                mapping[c] = free_targets.pop(0)
        return Coloring(tuple(mapping[c] for c in witness.colors))


@pytest.fixture
def null_adapter(monkeypatch):
    """Let `bench` resolve the adapter name "null" to the NullAdapter double."""
    real = bench.load_adapter
    monkeypatch.setattr(bench, "load_adapter",
                        lambda spec: NullAdapter() if spec == "null" else real(spec))

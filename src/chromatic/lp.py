"""LP-format text emission and parsing.

The emitter writes the CPLEX-style LP dialect every mainstream MILP solver
consumes: a Minimize section (Maximize for a parsed maximization), named
rows under Subject To, fixed variables and any general bounds as Bounds
lines, and a Binaries section. Output is byte-identical
for identical models. The objective's constant offset cannot be carried
portably inside the format, so it travels as a structured comment and is
re-applied by whoever normalizes results.

The parser reads the same dialect back (plus minor spacing/keyword
variations) into the model container the builders make, `MilpModel`, with
all rows in one block; it feeds the bundled solver's `chromatic-lps` child
and the emit/parse self-checks. The in-process solve writes and parses no
text: it hands the built model to the solver as it is.
"""
from __future__ import annotations

import re

import numpy as np

from .models import INF, MilpModel, RowBlock, row_sense

MAX_LINE = 200


class LpParseError(ValueError):
    """Malformed LP text; message carries the 1-based line number."""


def _coef_str(coef: float) -> str:
    if coef == int(coef):
        return str(int(coef))
    return repr(coef)


def _term(name: str, coef: float) -> str:
    """A term as it follows another in an expression: "+ x", "- 2 x"."""
    body = name if abs(coef) == 1 else f"{_coef_str(abs(coef))} {name}"
    return f"{'-' if coef < 0 else '+'} {body}"


def _expression(joined: str, first_coef: float) -> str:
    """`_term` tokens joined by spaces as an expression: the first drops its "+"."""
    if not joined:
        return "0 __zero__"
    if first_coef > 0:
        return joined[2:]
    return joined if first_coef < 0 else f"- {joined[2:]}"


def _wrap(line: str) -> list[str]:
    if len(line) <= MAX_LINE:
        return [line]
    out = []
    current = ""
    for token in line.split(" "):
        if current and len(current) + 1 + len(token) > MAX_LINE:
            out.append(current)
            current = "   " + token
        else:
            current = token if not current else f"{current} {token}"
    if current:
        out.append(current)
    return out


def _row_lines(m: MilpModel) -> list[str]:
    """The Subject To section, rendered block by block from the column arrays."""
    plus = [f"+ {name}" for name in m.variables]
    minus = [f"- {name}" for name in m.variables]
    lines: list[str] = []
    for block in m.blocks:
        cols, coefs, ptr = block.cols.tolist(), block.coefs.tolist(), block.indptr.tolist()
        tokens = [plus[j] if coef == 1 else minus[j] if coef == -1 else _term(m.variables[j], coef)
                  for j, coef in zip(cols, coefs)]
        bounds = list(zip(block.lo.tolist(), block.hi.tolist()))
        tails = {}
        for lo, hi in set(bounds):
            sense, rhs = row_sense(lo, hi)
            tails[lo, hi] = f"{sense} {_coef_str(rhs)}"
        for name, start, stop, bound in zip(block.names(), ptr, ptr[1:], bounds):
            body = _expression(" ".join(tokens[start:stop]), coefs[start] if stop > start else 0)
            line = f" {name}: {body} {tails[bound]}"
            if len(line) <= MAX_LINE:
                lines.append(line)
            else:
                lines.extend(_wrap(line))
    return lines


def _bound_line(name: str, lo: float, hi: float) -> str:
    """A bound in one of the three forms `parse_lp` reads."""
    if lo == hi:
        return f" {name} = {_coef_str(lo)}"
    if lo == -INF and hi == INF:
        return f" {name} free"
    return f" {_coef_str(lo)} <= {name} <= {_coef_str(hi)}"


def emit_lp(m: MilpModel) -> str:
    """Serialize a model to LP text; identical models give identical bytes.

    A built model is an all-binary minimization whose only bounds are its
    fixings. A parsed one may also be a maximization, bound columns
    generally and keep continuous columns after its first `num_binary`;
    all of that is written back.
    """
    lines = [f"\\ model: {m.kind}", f"\\ offset: {_coef_str(m.offset)}"]
    lines.append("Minimize" if m.minimize else "Maximize")
    objective = " ".join(_term(name, coef) for name, coef in m.objective)
    lines.extend(_wrap(" obj: " + _expression(objective, m.objective[0][1] if objective else 0)))
    lines.append("Subject To")
    lines.extend(_row_lines(m))
    bounds = [f" {name} = {m.fixings[name]}" if name in m.fixings
              else _bound_line(name, *m.bounds[name])
              for name in m.variables if name in m.fixings or name in m.bounds]
    if bounds:
        lines.append("Bounds")
        lines.extend(bounds)
    binaries = m.variables if m.num_binary is None else m.variables[:m.num_binary]
    if binaries:
        lines.append("Binaries")
        for chunk in range(0, len(binaries), 12):
            lines.append(" " + " ".join(binaries[chunk:chunk + 12]))
    lines.append("End")
    return "\n".join(lines) + "\n"


_NAME = r"[A-Za-z_][A-Za-z0-9_.\[\]]*"
_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_TERM_RE = re.compile(rf"\s*([+-])?\s*({_NUM})?\s*({_NAME})")
_SENSE_RE = re.compile(r"(<=|>=|=<|=>|=|<|>)")
_LABEL_RE = re.compile(rf"^\s*({_NAME})\s*:")
_SECTION_RE = re.compile(
    r"^(minimize|minimise|min|maximize|maximise|max|subject\s+to|such\s+that|st|s\.t\.|"
    r"bounds?|binar(?:y|ies)|generals?|integers?|semi-continuous|end)\s*$",
    re.IGNORECASE)


def _parse_terms(text: str, lineno: int) -> list[tuple[str, float]]:
    terms: list[tuple[str, float]] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if not match:
            raise LpParseError(f"line {lineno}: cannot parse expression near {text[pos:pos + 30]!r}")
        sign, coef, name = match.groups()
        value = float(coef) if coef else 1.0
        if sign == "-":
            value = -value
        if name != "__zero__":
            terms.append((name, value))
        pos = match.end()
    return terms


def _section_of(word: str) -> tuple[str, bool | None]:
    w = re.sub(r"\s+", " ", word.lower())
    if w in ("minimize", "minimise", "min"):
        return "objective", True
    if w in ("maximize", "maximise", "max"):
        return "objective", False
    if w in ("subject to", "such that", "st", "s.t."):
        return "constraints", None
    if w.startswith("bound"):
        return "bounds", None
    if w.startswith("binar") or w.startswith("general") or w.startswith("integer"):
        return "binaries", None
    if w == "end":
        return "done", None
    raise LpParseError(f"unhandled section keyword {word!r}")


class _RowAccumulator:
    """Collects possibly-wrapped objective/constraint rows and parses on flush."""

    def __init__(self):
        self.objective: list[tuple[str, float]] = []
        self.labels: list[str] = []
        self.terms: list[list[tuple[str, float]]] = []
        self.lo: list[float] = []
        self.hi: list[float] = []
        self.kind: str | None = None
        self.label: str | None = None
        self.body = ""
        self.lineno = 0

    def start(self, kind: str, label: str | None, body: str, lineno: int):
        self.flush()
        self.kind, self.label, self.body, self.lineno = kind, label, body.strip(), lineno

    def extend(self, body: str):
        self.body = f"{self.body} {body.strip()}".strip()

    def open(self) -> bool:
        return self.kind is not None

    def flush(self):
        if self.kind is None:
            return
        if self.kind == "objective":
            self.objective.extend(_parse_terms(self.body, self.lineno))
        else:
            sense_match = None
            for m in _SENSE_RE.finditer(self.body):
                sense_match = m
            if not sense_match:
                raise LpParseError(f"line {self.lineno}: constraint without sense: {self.body!r}")
            sense = {"<": "<=", ">": ">=", "=<": "<=", "=>": ">="}.get(
                sense_match.group(1), sense_match.group(1))
            lhs, rhs_text = self.body[:sense_match.start()], self.body[sense_match.end():]
            try:
                rhs = float(rhs_text.strip())
            except ValueError:
                raise LpParseError(f"line {self.lineno}: non-numeric right-hand side "
                                   f"{rhs_text.strip()!r}") from None
            self.labels.append(self.label or f"c{len(self.labels)}")
            self.terms.append(_parse_terms(lhs, self.lineno))
            self.lo.append(-float("inf") if sense == "<=" else rhs)
            self.hi.append(float("inf") if sense == ">=" else rhs)
        self.kind = None
        self.label = None
        self.body = ""

    def model(self, offset: float, minimize: bool, bounds: dict[str, tuple[float, float]],
              binaries: list[str]) -> MilpModel:
        """The rows as one block over columns in first-seen order: the
        binaries, then names from the objective, the rows and the bounds."""
        columns: dict[str, int] = {}
        for name in binaries:
            columns.setdefault(name, len(columns))
        num_binary = len(columns)
        for name, _ in self.objective:
            columns.setdefault(name, len(columns))
        cols = [columns.setdefault(name, len(columns)) for terms in self.terms for name, _ in terms]
        for name in bounds:
            columns.setdefault(name, len(columns))
        indptr = np.zeros(len(self.terms) + 1, dtype=np.int64)
        np.cumsum(np.array([len(terms) for terms in self.terms], dtype=np.int64), out=indptr[1:])
        labels = self.labels
        rows = RowBlock("lp", indptr=indptr, cols=np.array(cols, dtype=np.int64),
                        coefs=np.array([coef for terms in self.terms for _, coef in terms],
                                       dtype=float),
                        lo=np.array(self.lo, dtype=float), hi=np.array(self.hi, dtype=float),
                        dense_width=None, names=lambda: labels)
        return MilpModel(kind="lp", variables=tuple(columns), blocks=(rows,),
                         objective=tuple(self.objective), offset=offset, fixings={}, meta={},
                         bounds=bounds, num_binary=num_binary, minimize=minimize)


def parse_lp(text: str) -> MilpModel:
    """Parse LP text (the emitted dialect and close variants) into a model."""
    rows = _RowAccumulator()
    offset, minimize = 0.0, True
    bounds: dict[str, tuple[float, float]] = {}
    binaries: list[str] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped_comment = raw.split("\\")[0]
        if raw.lstrip().startswith("\\"):
            offset_match = re.match(r"\\\s*offset:\s*(" + _NUM + ")", raw.lstrip())
            if offset_match:
                offset = float(offset_match.group(1))
            continue
        line = stripped_comment.strip()
        if not line:
            continue
        if _SECTION_RE.match(line):
            rows.flush()
            section, sense = _section_of(line)
            if sense is not None:
                minimize = sense
            continue
        if section == "objective":
            label_match = _LABEL_RE.match(line)
            if label_match:
                rows.start("objective", label_match.group(1),
                           line[label_match.end():], lineno)
            elif rows.open():
                rows.extend(line)
            else:
                rows.start("objective", None, line, lineno)
        elif section == "constraints":
            label_match = _LABEL_RE.match(line)
            if label_match:
                rows.start("constraint", label_match.group(1),
                           line[label_match.end():], lineno)
            elif rows.open():
                rows.extend(line)
            else:
                rows.start("constraint", None, line, lineno)
        elif section == "bounds":
            fixed = re.match(rf"^({_NAME})\s*=\s*({_NUM})$", line)
            ranged = re.match(rf"^({_NUM})\s*<=\s*({_NAME})\s*<=\s*({_NUM})$", line)
            free = re.match(rf"^({_NAME})\s+free$", line, re.IGNORECASE)
            if fixed:
                val = float(fixed.group(2))
                bounds[fixed.group(1)] = (val, val)
            elif ranged:
                bounds[ranged.group(2)] = (float(ranged.group(1)), float(ranged.group(3)))
            elif free:
                bounds[free.group(1)] = (float("-inf"), float("inf"))
            else:
                raise LpParseError(f"line {lineno}: cannot parse bound {line!r}")
        elif section == "binaries":
            for token in line.split():
                if not re.fullmatch(_NAME, token):
                    raise LpParseError(f"line {lineno}: bad variable name {token!r}")
                binaries.append(token)
        elif section == "done":
            raise LpParseError(f"line {lineno}: content after End")
        else:
            raise LpParseError(f"line {lineno}: content before any section: {line!r}")
    rows.flush()
    if not binaries and not rows.objective and not rows.terms:
        raise LpParseError("no LP content found")
    return rows.model(offset, minimize, bounds, binaries)


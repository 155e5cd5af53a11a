"""LP-format text emission and parsing.

The emitter writes the CPLEX-style LP dialect every mainstream MILP solver
consumes: a Minimize section, named rows under Subject To, fixed variables
as explicit Bounds lines, and a Binaries section. Output is byte-identical
for identical models. The objective's constant offset cannot be carried
portably inside the format, so it travels as a structured comment and is
re-applied by whoever normalizes results.

The parser reads the same dialect back (plus minor spacing/keyword
variations); it feeds the bundled solver's `chromatic-lps` child and the
emit/parse self-checks. `parsed_view` gives the same content straight from
a model, for the in-process solve, which writes and parses no text.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from .models import MilpModel

MAX_LINE = 200


class LpParseError(ValueError):
    """Malformed LP text; message carries the 1-based line number."""


@dataclass
class ParsedLp:
    offset: float = 0.0
    minimize: bool = True
    objective: list[tuple[str, float]] = field(default_factory=list)
    constraints: list[tuple[str, Sequence[tuple[str, float]], str, float]] = \
        field(default_factory=list)
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    binaries: list[str] = field(default_factory=list)

    def variables(self) -> list[str]:
        seen = dict.fromkeys(self.binaries)
        for name, _ in self.objective:
            seen.setdefault(name)
        for _, terms, _, _ in self.constraints:
            for name, _ in terms:
                seen.setdefault(name)
        for name in self.bounds:
            seen.setdefault(name)
        return list(seen)


def _coef_str(coef: float) -> str:
    if coef == int(coef):
        return str(int(coef))
    return repr(coef)


def _terms_str(terms) -> str:
    if not terms:
        return "0 __zero__"
    parts: list[str] = []
    for idx, (name, coef) in enumerate(terms):
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        body = name if mag == 1 else f"{_coef_str(mag)} {name}"
        if idx == 0:
            parts.append(body if coef > 0 else f"- {body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


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


def emit_lp(m: MilpModel) -> str:
    """Serialize a model to LP text; identical models give identical bytes."""
    seen = set()
    for name in m.variables:
        if name in seen:
            raise ValueError(f"variable name collision: {name}")
        seen.add(name)

    lines = [f"\\ model: {m.kind}", f"\\ offset: {_coef_str(m.offset)}"]
    lines.append("Minimize")
    lines.extend(_wrap(" obj: " + _terms_str(m.objective)))
    lines.append("Subject To")
    for con in m.constraints:
        rendered = f" {con.name}: {_terms_str(con.terms)} {con.sense} {_coef_str(con.rhs)}"
        lines.extend(_wrap(rendered))
    if m.fixings:
        lines.append("Bounds")
        for name in m.variables:
            if name in m.fixings:
                lines.append(f" {name} = {m.fixings[name]}")
    lines.append("Binaries")
    for chunk in range(0, len(m.variables), 12):
        lines.append(" " + " ".join(m.variables[chunk:chunk + 12]))
    lines.append("End")
    return "\n".join(lines) + "\n"


def parsed_view(m: MilpModel) -> ParsedLp:
    """What `parse_lp(emit_lp(m))` reads back, taken from the model without text.

    Rows, objective and fixings (as lo = hi bounds) are the model's own, and
    every variable is binary in `m.variables` order, as the emitted Binaries
    section lists them, so `variables()` gives the same column order.
    """
    return ParsedLp(offset=m.offset, minimize=True, objective=list(m.objective),
                    constraints=[(c.name, c.terms, c.sense, c.rhs) for c in m.constraints],
                    bounds={name: (value, value) for name, value in m.fixings.items()},
                    binaries=list(m.variables))


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

    def __init__(self, parsed: ParsedLp):
        self.parsed = parsed
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
            self.parsed.objective.extend(_parse_terms(self.body, self.lineno))
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
            label = self.label or f"c{len(self.parsed.constraints)}"
            self.parsed.constraints.append((label, _parse_terms(lhs, self.lineno), sense, rhs))
        self.kind = None
        self.label = None
        self.body = ""


def parse_lp(text: str) -> ParsedLp:
    """Parse LP text (the emitted dialect and close variants)."""
    out = ParsedLp()
    rows = _RowAccumulator(out)
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped_comment = raw.split("\\")[0]
        if raw.lstrip().startswith("\\"):
            offset_match = re.match(r"\\\s*offset:\s*(" + _NUM + ")", raw.lstrip())
            if offset_match:
                out.offset = float(offset_match.group(1))
            continue
        line = stripped_comment.strip()
        if not line:
            continue
        if _SECTION_RE.match(line):
            rows.flush()
            section, minimize = _section_of(line)
            if minimize is not None:
                out.minimize = minimize
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
                out.bounds[fixed.group(1)] = (val, val)
            elif ranged:
                out.bounds[ranged.group(2)] = (float(ranged.group(1)), float(ranged.group(3)))
            elif free:
                out.bounds[free.group(1)] = (float("-inf"), float("inf"))
            else:
                raise LpParseError(f"line {lineno}: cannot parse bound {line!r}")
        elif section == "binaries":
            for token in line.split():
                if not re.fullmatch(_NAME, token):
                    raise LpParseError(f"line {lineno}: bad variable name {token!r}")
                out.binaries.append(token)
        elif section == "done":
            raise LpParseError(f"line {lineno}: content after End")
        else:
            raise LpParseError(f"line {lineno}: content before any section: {line!r}")
    rows.flush()
    if not out.binaries and not out.objective and not out.constraints:
        raise LpParseError("no LP content found")
    return out


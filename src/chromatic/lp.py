"""LP-format text emission and parsing.

The emitter writes the CPLEX-style LP dialect every mainstream MILP solver
consumes: a Minimize section (Maximize for a parsed maximization), named
rows under Subject To, the model's `bounds` (fixed columns and any general
bounds) as Bounds lines, and a Binaries section. Output is byte-identical
for identical models. The objective's constant offset cannot be carried
portably inside the format, so it travels as a structured comment and is
re-applied by whoever normalizes results.

The parser reads the same dialect back into the model container the
builders make, `container.MilpModel`, with all rows in one block, for the
library and the emit/parse self-checks; `lpsolve.solve_parsed` solves what
it reads. This module imports only that container, not the builders.
Neither solve route calls it: the in-process solve hands the built model
to the solver as it is, and the bundled solver's `chromatic-lps` child
hands its file to HiGHS's own LP reader, which reads more leniently than
this grammar. One grammar covers what it reads:

  section headers  a line holding one keyword of `_SECTIONS`, in any ASCII
                   case:
                   Minimize/Minimise/Min, Maximize/Maximise/Max,
                   Subject To/Such That/St/S.t., Bound(s), Binary/Binaries,
                   End. Generals, Integers and Semi-continuous are refused
                   with their line number: their columns would need bounds
                   and integrality that the model does not carry.
  objective        [name:] expression
  rows             [name:] expression sense number, where the sense is one
                   of <=, =<, <, >=, =>, > or =, and the number is finite.
                   A row ends at its right-hand side, so it may wrap over
                   lines; an unnamed row k is named c<k>.
  expression       one or more terms [sign] [number] name; every term
                   after the first starts with its sign
  bounds           one per line: [a op] name [op b] or name free, so
                   x = a, a <= x <= b, x >= a, x <= b and -inf <= x <= b.
                   A side a line leaves unset defaults to 0 below, and
                   above to 1 for a Binaries column and +inf otherwise.
                   A bound outside [0, 1] on a Binaries column is refused
                   with its line number: it would widen the column.
  binaries         names; every other column is continuous
  comments         from a backslash to the end of the line; a line
                   `\\ offset: k` sets the objective's constant

`emit_lp` writes bounds in the same grammar, so any bound `parse_lp`
accepts reads back the same.
"""
from __future__ import annotations

import re

import numpy as np

from .container import INF, MilpModel, RowBlock, row_sense

MAX_LINE = 200


class LpParseError(ValueError):
    """Malformed LP text; message carries the 1-based line number."""


def _coef_str(coef: float) -> str:
    if float(coef).is_integer():
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
    return joined if first_coef < 0 else joined[2:]


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


def _bound_line(name: str, lo: float, hi: float, top: float) -> str:
    """A column bound as `parse_lp` reads it back; `top` is the column's
    default upper bound, 1 for a binary and +inf otherwise."""
    if lo == hi:
        return f" {name} = {_coef_str(lo)}"
    if lo == -INF and hi == INF:
        return f" {name} free"
    if hi == top:
        return f" {name} >= {_coef_str(lo)}"
    return f" {_coef_str(lo)} <= {name} <= {_coef_str(hi)}"


def emit_lp(m: MilpModel) -> str:
    """Serialize a model to LP text; identical models give identical bytes.

    A built model is an all-binary minimization whose only bounds are its
    fixings. A parsed one may also be a maximization, bound columns
    generally and keep continuous columns after its first `num_binary`;
    all of that is written back, every bound through `_bound_line`.
    """
    lines = [f"\\ model: {m.kind}", f"\\ offset: {_coef_str(m.offset)}"]
    lines.append("Minimize" if m.minimize else "Maximize")
    objective = " ".join(_term(name, coef) for name, coef in m.objective)
    lines.extend(_wrap(" obj: " + _expression(objective, m.objective[0][1] if objective else 0)))
    lines.append("Subject To")
    lines.extend(_row_lines(m))
    binaries = m.variables[:m.num_binary]
    bounds = [_bound_line(name, *m.bounds[name], 1.0 if j < m.num_binary else INF)
              for j, name in enumerate(m.variables) if name in m.bounds]
    if bounds:
        lines.append("Bounds")
        lines.extend(bounds)
    if binaries:
        lines.append("Binaries")
        for chunk in range(0, len(binaries), 12):
            lines.append(" " + " ".join(binaries[chunk:chunk + 12]))
    lines.append("End")
    return "\n".join(lines) + "\n"


_NAME = r"[A-Za-z_][A-Za-z0-9_.\[\]]*"
_NUM = r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
# `(?ai:...)`: any case of these ASCII letters, and no Unicode case folds.
_VALUE = rf"{_NUM}|[-+]?(?ai:inf(?:inity)?)"
_SENSE = r"<=|>=|=<|=>|=|<|>"
_LE = ("<=", "=<", "<")
_GE = (">=", "=>", ">")
# An expression's first term may omit its sign; every later one starts with it.
_EXPR = (rf"(?:[+-]\s*)?(?:{_NUM}\s*)?{_NAME}\s*"
         rf"(?:[+-]\s*(?:{_NUM}\s*)?{_NAME}\s*)*")
_HEAD_RE = re.compile(rf"(?:({_NAME})\s*:\s*)?({_EXPR})?")
# `(?=(...))\2` holds the expression atomic, as `(?>...)` would from Python
# 3.11 on: a row that fails is refused in linear time instead of retrying
# every way its terms split ("2e5x" is 2e5 x or 2 e5x), which is exponential.
_ROW_RE = re.compile(rf"(?:({_NAME})\s*:\s*)?(?=({_EXPR}))\2({_SENSE})\s*({_NUM})\s*")
# The lookahead skips the number attempt where a term starts with its name.
_TERM_RE = re.compile(rf"([+-]?)\s*((?=[-+.\d]){_NUM}\s*)?({_NAME})")
_SENSE_RE = re.compile(_SENSE)
_BOUND_RE = re.compile(
    rf"(?:({_VALUE})\s*({_SENSE})\s*)?({_NAME})(?:\s*({_SENSE})\s*({_VALUE})|\s+((?ai:free)))?\s*")
_NAME_RE = re.compile(_NAME)
_OFFSET_RE = re.compile(rf"\n[^\S\n]*\\[^\S\n]*offset:[^\S\n]*({_NUM})")
_COMMENT_RE = re.compile(r"\\[^\n]*")
_LINE_RE = re.compile(r"\S[^\n]*")
_SPACE_RE = re.compile(r"\s*")
_SECTIONS = {
    "minimize": "minimize", "minimise": "minimize", "min": "minimize",
    "maximize": "maximize", "maximise": "maximize", "max": "maximize",
    "subject to": "rows", "such that": "rows", "st": "rows", "s.t.": "rows",
    "bound": "bounds", "bounds": "bounds", "binary": "binaries", "binaries": "binaries",
    "general": "refused", "generals": "refused", "integer": "refused", "integers": "refused",
    "semi-continuous": "refused", "end": "end",
}
_HEADER_RE = re.compile(
    r"\n[^\S\n]*(" + "|".join(re.escape(word).replace(r"\ ", r"[^\S\n]+") for word in _SECTIONS)
    + r")[^\S\n]*$", re.MULTILINE | re.IGNORECASE | re.ASCII)


def _error(text: str, pos: int, message: str) -> LpParseError:
    line = text.count("\n", 0, pos)  # 1-based: `parse_lp` puts a newline first
    return LpParseError(f"line {line}: {message}")


def _terms(expression: str) -> list[tuple[str, str, str]]:
    """(sign, number, name) of each term of a checked expression, leaving out
    the `__zero__` placeholder that `emit_lp` writes for an empty one."""
    found = _TERM_RE.findall(expression)
    if "__zero__" in expression:
        found = [term for term in found if term[2] != "__zero__"]
    return found


def _coefficients(terms: list[tuple[str, str, str]]) -> list[float]:
    """The signed coefficient of each (sign, number, name) that `_TERM_RE` finds."""
    return [-float(num or 1) if sign == "-" else float(num or 1) for sign, num, _ in terms]


def _expression_error(text: str, at: int) -> LpParseError:
    return _error(text, at, f"cannot parse expression near {text[at:at + 30]!r}")


def _row_error(text: str, pos: int, end: int) -> LpParseError:
    """Why the row starting at `pos` does not match `_ROW_RE`."""
    head = _HEAD_RE.match(text, pos, end)
    at = head.end()
    sense = _SENSE_RE.match(text, at, end)
    if head.group(2) and sense:
        rhs = text[sense.end():end].split()
        return _error(text, sense.end(), f"non-numeric right-hand side {rhs[0] if rhs else ''!r}")
    if head.group(2) and (at == end or _HEAD_RE.match(text, at, end).group(1)):
        return _error(text, pos, f"constraint without sense: {' '.join(text[pos:at].split())!r}")
    return _expression_error(text, at)


def parse_lp(text: str) -> MilpModel:
    """Parse LP text (the emitted dialect and close variants) into a model.

    Columns come in first-seen order: the binaries, then names from the
    objective, the rows and the bounds.
    """
    text = "\n" + text  # every line, the first one too, starts after a newline
    offsets = _OFFSET_RE.findall(text)
    text = _COMMENT_RE.sub("", text)
    headers = list(_HEADER_RE.finditer(text))
    start = headers[0].start() if headers else len(text)
    first = _SPACE_RE.match(text, 0, start).end()
    if first < start:
        raise _error(text, first, f"content before any section: "
                                  f"{_LINE_RE.match(text, first).group().strip()!r}")
    minimize = True
    objective: list[tuple[str, float]] = []
    labels: list[str | None] = []
    senses: list[str] = []
    rhs: list[float] = []
    widths: list[int] = []
    terms: list[tuple[str, str, str]] = []
    sides: dict[str, list[float | None]] = {}
    binaries: list[str] = []
    for header, following in zip(headers, headers[1:] + [None]):
        section = _SECTIONS[" ".join(header.group(1).lower().split())]
        pos = _SPACE_RE.match(text, header.end()).end()
        end = following.start() if following else len(text)
        if section == "refused":
            raise _error(text, header.start(1), f"section {header.group(1)!r} is not supported: "
                                                f"only binary and continuous columns are read")
        if section in ("minimize", "maximize"):
            minimize = section == "minimize"
            head = _HEAD_RE.match(text, pos, end)
            if head.end() < end:
                raise _expression_error(text, head.end())
            found = _terms(head.group(2) or "")
            objective += zip([name for _, _, name in found], _coefficients(found))
        elif section == "rows":
            while pos < end:
                row = _ROW_RE.match(text, pos, end)
                if row is None:
                    raise _row_error(text, pos, end)
                label, lhs, sense, value = row.groups()
                found = _terms(lhs)
                labels.append(label)
                senses.append(sense)
                rhs.append(float(value))
                widths.append(len(found))
                terms += found
                pos = row.end()
        elif section == "bounds":
            for line in _LINE_RE.finditer(text, pos, end):
                bound = _BOUND_RE.fullmatch(text, *line.span())
                if bound is None or not (bound.group(2) or bound.group(4) or bound.group(6)):
                    raise _error(text, line.start(),
                                 f"cannot parse bound {line.group().strip()!r}")
                a, before, name, after, b, free = bound.groups()
                side = sides.setdefault(name, [None, None])  # (value, where it was set)
                at = line.start()
                if free:
                    side[:] = [(-INF, at), (INF, at)]
                for sense, value, right in ((before, a, False), (after, b, True)):
                    if sense == "=":
                        side[:] = [(float(value), at)] * 2
                    elif sense:  # "a <= x" and "x >= b" set side 0, the lower one
                        side[(sense in _LE) == right] = (float(value), at)
        elif section == "binaries":
            for line in _LINE_RE.finditer(text, pos, end):
                for token in line.group().split():
                    if not _NAME_RE.fullmatch(token):
                        raise _error(text, line.start(), f"bad variable name {token!r}")
                    binaries.append(token)
        elif pos < end:
            raise _error(text, pos, "content after End")
    if not binaries and not objective and not labels:
        raise LpParseError("no LP content found")

    num_binary = len(dict.fromkeys(binaries))
    names = [name for _, _, name in terms]
    variables = tuple(dict.fromkeys([*binaries, *(name for name, _ in objective), *names,
                                     *sides]))
    columns = dict(zip(variables, range(len(variables))))
    bounds = {}
    for name, side in sides.items():
        top = 1.0 if columns[name] < num_binary else INF
        for value, at in filter(None, side):
            if top == 1.0 and not 0 <= value <= 1:
                raise _error(text, at, f"bound {value:g} on binary column {name} is outside [0, 1]")
        bounds[name] = tuple(default if set_ is None else set_[0]
                             for set_, default in zip(side, (0.0, top)))
    indptr = np.zeros(len(widths) + 1, dtype=np.int64)
    np.cumsum(widths, out=indptr[1:])
    values = np.array(rhs, dtype=float)
    senses_array = np.array(senses, dtype=str)
    names_of_rows = [label or f"c{i}" for i, label in enumerate(labels)]
    rows = RowBlock("lp", indptr=indptr,
                    cols=np.fromiter(map(columns.__getitem__, names), dtype=np.int64,
                                     count=len(names)),
                    coefs=np.array(_coefficients(terms), dtype=float),
                    lo=np.where(np.isin(senses_array, _LE), -INF, values),
                    hi=np.where(np.isin(senses_array, _GE), INF, values),
                    names=lambda: names_of_rows)
    return MilpModel(kind="lp", variables=variables, blocks=(rows,),
                     objective=tuple(objective), offset=float(offsets[-1]) if offsets else 0.0,
                     meta={}, bounds=bounds, num_binary=num_binary,
                     minimize=minimize)

"""Full analysis of one covering: degree and neighborhood tables, core
block assignment, reducibility witnesses, and the classification verdicts.
Used by the command-line front end; the JSON form mirrors the report
fields one to one.

``analyze`` reads the covering's bit table (see ``_table``) once, by
element and block index; the pair-degree matrix is computed only on
request.

``report_to_dict`` is the one JSON schema.  ``report_to_json`` writes its
text, byte for byte what ``json.dumps`` writes for that dict with
``indent=2``: a two-space indent and ``\\uXXXX`` escapes for non-ASCII.
It writes the text in one pass over the report, without building the
dict: it quotes each label once and writes each distinct block's label
list once, and that one text serves every place the block appears.
``json.dumps`` with any ``indent`` falls back to its pure-Python encoder,
and building the dict and then walking it made the text the largest part
of ``analyze --json`` on 64-element coverings: on the benchmark's
64-element, 2000-block covering the text took 15.5-16.2 ms that way and
takes 7.0-7.5 ms in one pass (README, "analyze --json schema").
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from ._table import pick, table
from .neighborhoods import cov, is_cov_fixed_point
from .reduction import is_invariable
from .setsys import Block, Covering, covering_to_dict, is_partition


class ElementRow(NamedTuple):
    element: str
    membership_degree: int
    neighborhood: Block
    core_block: Block | None


class BlockRow(NamedTuple):
    block: Block
    core_block_of: tuple[str, ...]
    witness: tuple[Block, ...] | None


class Classification(NamedTuple):
    partition: bool
    irreducible: bool
    invariable: bool
    cov_fixed_point: bool


class AnalysisReport(NamedTuple):
    covering: Covering
    elements: tuple[ElementRow, ...]
    lambda_matrix: tuple[tuple[int, ...], ...] | None
    blocks: tuple[BlockRow, ...]
    classification: Classification
    cov: Covering


def analyze(c: Covering, include_lambda: bool = False) -> AnalysisReport:
    """Compute the full report for one covering.

    Every row is read from the covering's one bit table by element and
    block index; the verdicts are the library's own tests.  The pair-degree
    matrix is computed only when ``include_lambda`` is set: it is quadratic
    in the universe size and rarely wanted.
    """
    t, names, image = table(c), c.universe.names, cov(c)
    nbh = {b.bits: b for b in image.blocks}  # one Block per distinct N(x)
    elements = tuple(
        ElementRow(x, s.bit_count(), nbh[m], nbh[m] if cored else None)
        for x, s, m, cored in zip(names, t.holders, t.nbh, t.cored)
    )
    lam = None
    if include_lambda:
        lam = tuple(tuple((s & r).bit_count() for r in t.holders) for s in t.holders)
    core_of: dict[int, list[str]] = {}  # x's core block, if any, is N(x)
    for x, m in zip(names, t.nbh):
        core_of.setdefault(m, []).append(x)
    blocks = tuple(
        BlockRow(
            block=b,
            core_block_of=tuple(core_of.get(b.bits, ())),
            witness=tuple(pick(c, w)) if w else None,
        )
        for b, w in zip(c.blocks, t.witnesses)
    )
    verdict = is_invariable(c)
    classification = Classification(
        partition=is_partition(c),
        irreducible=not verdict.reducible_blocks,
        invariable=verdict.invariable,
        cov_fixed_point=is_cov_fixed_point(c),
    )
    return AnalysisReport(c, elements, lam, blocks, classification, image)


def report_to_dict(r: AnalysisReport) -> dict:
    """JSON form of the report; schema documented in the README."""
    covering = covering_to_dict(r.covering)
    cov = covering_to_dict(r.cov)
    # Every block in the report is a block of the covering (rows, core
    # blocks, witnesses) or of Cov (neighborhoods): reuse the member lists
    # computed for those two, copied so that no two parts share a list.
    labels = dict(zip([b.bits for b in r.covering.blocks], covering["blocks"]))
    labels.update(zip([b.bits for b in r.cov.blocks], cov["blocks"]))
    return {
        "covering": covering,
        "elements": [
            {
                "element": e.element,
                "membership_degree": e.membership_degree,
                "neighborhood": list(labels[e.neighborhood.bits]),
                "core_block": (
                    list(labels[e.core_block.bits]) if e.core_block else None
                ),
            }
            for e in r.elements
        ],
        "lambda": (
            None
            if r.lambda_matrix is None
            else {
                "elements": list(r.covering.universe.names),
                "matrix": [list(row) for row in r.lambda_matrix],
            }
        ),
        "blocks": [
            {
                "block": list(labels[b.block.bits]),
                "core_block_of": list(b.core_block_of),
                "reducible": b.witness is not None,
                "witness": (
                    None
                    if b.witness is None
                    else [list(labels[w.bits]) for w in b.witness]
                ),
            }
            for b in r.blocks
        ],
        "classification": r.classification._asdict(),
        "cov": cov,
        "cov_equals_covering": r.classification.cov_fixed_point,
    }


# Line breaks with the indents of the JSON text's nesting levels.
_PAD2, _PAD4, _PAD6 = "\n  ", "\n    ", "\n      "
_BOOL = {False: "false", True: "true"}


def _list(items: list[str], pad: str) -> str:
    """JSON array of the already written ``items`` at the nesting level
    whose line break and indent are ``pad``."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def report_to_json(r: AnalysisReport) -> str:
    """The text ``json.dumps`` writes for ``report_to_dict(r)`` with
    ``indent=2``, byte for byte, written in one pass over the report.

    Each label is quoted once.  Each distinct block's label list is
    written once, at the indent that the covering's blocks, the
    neighborhoods, the row blocks, the core blocks and Cov's blocks share;
    a witness entry sits one level deeper."""
    c = r.covering
    quoted = {x: _quote(x) for x in c.universe.names}
    universe = _list(list(quoted.values()), _PAD4)
    distinct = {b.bits: b for b in (*c.blocks, *r.cov.blocks)}
    text = {
        m: _list([quoted[x] for x in b.members()], _PAD6)
        for m, b in distinct.items()
    }
    elements = _list(
        [
            f'{{\n      "element": {quoted[e.element]},'
            f'\n      "membership_degree": {e.membership_degree},'
            f'\n      "neighborhood": {text[e.neighborhood.bits]},'
            f'\n      "core_block": '
            f'{text[e.core_block.bits] if e.core_block else "null"}\n    }}'
            for e in r.elements
        ],
        _PAD2,
    )
    lam = "null"
    if r.lambda_matrix is not None:
        rows = [_list([str(v) for v in row], _PAD6) for row in r.lambda_matrix]
        lam = (
            f'{{\n    "elements": {universe},'
            f'\n    "matrix": {_list(rows, _PAD4)}\n  }}'
        )
    blocks = _list(
        [
            f'{{\n      "block": {text[b.block.bits]},'
            f'\n      "core_block_of": '
            f'{_list([quoted[x] for x in b.core_block_of], _PAD6)},'
            f'\n      "reducible": {_BOOL[b.witness is not None]},'
            f'\n      "witness": {_witness(b.witness, text)}\n    }}'
            for b in r.blocks
        ],
        _PAD2,
    )
    cls = r.classification
    verdicts = ",".join(
        f'{_PAD4}"{name}": {_BOOL[flag]}' for name, flag in zip(cls._fields, cls)
    )
    return (
        f'{{\n  "covering": {_covering(universe, c, text)},'
        f'\n  "elements": {elements},'
        f'\n  "lambda": {lam},'
        f'\n  "blocks": {blocks},'
        f'\n  "classification": {{{verdicts}\n  }},'
        f'\n  "cov": {_covering(universe, r.cov, text)},'
        f'\n  "cov_equals_covering": {_BOOL[cls.cov_fixed_point]}\n}}'
    )


def _covering(universe: str, c: Covering, text: dict[int, str]) -> str:
    blocks = _list([text[b.bits] for b in c.blocks], _PAD4)
    return f'{{\n    "universe": {universe},\n    "blocks": {blocks}\n  }}'


def _witness(witness: tuple[Block, ...] | None, text: dict[int, str]) -> str:
    if witness is None:
        return "null"
    # A quoted label holds no line break, so every line break in a block's
    # text starts one of its own lines: two more spaces after each move the
    # whole list one level deeper.
    return _list([text[w.bits].replace("\n", _PAD2) for w in witness], _PAD6)


def _grid(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    def fmt(cells: list[str]) -> str:
        return " | ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
    lines = [fmt(header), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rows)
    return lines


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def render_report(r: AnalysisReport) -> str:
    """Human-readable rendering; byte-identical for identical inputs."""
    names = r.covering.universe.names
    out: list[str] = []
    out.append(f"covering of {r.covering.universe}: {r.covering}")
    out.append("")
    out.extend(
        _grid(
            ["element", "degree", "neighborhood", "core block"],
            [
                [
                    e.element,
                    str(e.membership_degree),
                    str(e.neighborhood),
                    str(e.core_block) if e.core_block else "-",
                ]
                for e in r.elements
            ],
        )
    )
    if r.lambda_matrix is not None:
        out.append("")
        out.extend(
            _grid(
                ["lambda", *names],
                [
                    [x, *(str(v) for v in row)]
                    for x, row in zip(names, r.lambda_matrix)
                ],
            )
        )
    out.append("")
    out.extend(
        _grid(
            ["block", "core block of", "reducible"],
            [
                [
                    str(b.block),
                    ", ".join(b.core_block_of) if b.core_block_of else "none",
                    (
                        "no"
                        if b.witness is None
                        else "yes: " + " U ".join(str(w) for w in b.witness)
                    ),
                ]
                for b in r.blocks
            ],
        )
    )
    cls = r.classification
    out.append("")
    out.append(
        "classification: "
        f"partition: {_yesno(cls.partition)} | "
        f"irreducible: {_yesno(cls.irreducible)} | "
        f"invariable: {_yesno(cls.invariable)} | "
        f"Cov(C)=C: {_yesno(cls.cov_fixed_point)}"
    )
    verdict = (
        "equal to the covering"
        if cls.cov_fixed_point
        else "differs from the covering"
    )
    out.append(f"Cov(C) = {r.cov} ({verdict})")
    return "\n".join(out) + "\n"

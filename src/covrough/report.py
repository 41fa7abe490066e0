"""Full analysis of one covering: degree and neighborhood tables, core
block assignment, reducibility witnesses, and the classification verdicts.
Used by the command-line front end; the JSON form mirrors the report
fields one to one."""

from __future__ import annotations

from dataclasses import dataclass

from .degrees import core_block_assignment, degree_profile
from .neighborhoods import neighborhood_map
from .reduction import reducibility_report
from .setsys import Block, Covering, covering_to_dict, is_partition


@dataclass(frozen=True)
class ElementRow:
    element: str
    membership_degree: int
    neighborhood: Block
    core_block: Block | None


@dataclass(frozen=True)
class BlockRow:
    block: Block
    core_block_of: tuple[str, ...]
    witness: tuple[Block, ...] | None


@dataclass(frozen=True)
class Classification:
    partition: bool
    irreducible: bool
    invariable: bool
    cov_fixed_point: bool


@dataclass(frozen=True)
class AnalysisReport:
    covering: Covering
    elements: tuple[ElementRow, ...]
    lambda_matrix: tuple[tuple[int, ...], ...] | None
    blocks: tuple[BlockRow, ...]
    classification: Classification
    cov: Covering
    cov_equals_covering: bool


def analyze(c: Covering, include_lambda: bool = False) -> AnalysisReport:
    """Compute the full report for one covering.

    Every row and verdict is derived from the covering's one bit table.
    The pair-degree matrix is opt-in: it is quadratic in the universe size
    and rarely wanted.
    """
    names = c.universe.names
    nm = neighborhood_map(c)
    assignment = core_block_assignment(c)
    profile = degree_profile(c)
    red = reducibility_report(c)

    elements = tuple(
        ElementRow(
            element=x,
            membership_degree=profile.membership[x],
            neighborhood=nm.per_element[x],
            core_block=assignment.per_element[x],
        )
        for x in names
    )
    lam = None
    if include_lambda:
        lam = tuple(
            tuple(profile.common[x, y] for y in names) for x in names
        )
    core_of: dict[Block, list[str]] = {}
    for x in names:
        g = assignment.per_element[x]
        if g is not None:
            core_of.setdefault(g, []).append(x)
    blocks = tuple(
        BlockRow(
            block=b,
            core_block_of=tuple(core_of.get(b, ())),
            witness=red.per_block[b],
        )
        for b in c.blocks
    )
    all_cored = all(g is not None for g in assignment.per_element.values())
    classification = Classification(
        partition=is_partition(c),
        irreducible=red.is_irreducible_covering,
        invariable=red.is_irreducible_covering and all_cored,
        cov_fixed_point=nm.family == c,
    )
    return AnalysisReport(
        covering=c,
        elements=elements,
        lambda_matrix=lam,
        blocks=blocks,
        classification=classification,
        cov=nm.family,
        cov_equals_covering=classification.cov_fixed_point,
    )


def report_to_dict(r: AnalysisReport) -> dict:
    """JSON form of the report; schema documented in the README."""
    return {
        "covering": covering_to_dict(r.covering),
        "elements": [
            {
                "element": e.element,
                "membership_degree": e.membership_degree,
                "neighborhood": list(e.neighborhood.members()),
                "core_block": (
                    list(e.core_block.members()) if e.core_block else None
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
                "block": list(b.block.members()),
                "core_block_of": list(b.core_block_of),
                "reducible": b.witness is not None,
                "witness": (
                    None
                    if b.witness is None
                    else [list(w.members()) for w in b.witness]
                ),
            }
            for b in r.blocks
        ],
        "classification": {
            "partition": r.classification.partition,
            "irreducible": r.classification.irreducible,
            "invariable": r.classification.invariable,
            "cov_fixed_point": r.classification.cov_fixed_point,
        },
        "cov": covering_to_dict(r.cov),
        "cov_equals_covering": r.cov_equals_covering,
    }


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
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
        _table(
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
            _table(
                ["lambda", *names],
                [
                    [x, *(str(v) for v in row)]
                    for x, row in zip(names, r.lambda_matrix)
                ],
            )
        )
    out.append("")
    out.extend(
        _table(
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
        if r.cov_equals_covering
        else "differs from the covering"
    )
    out.append(f"Cov(C) = {r.cov} ({verdict})")
    return "\n".join(out) + "\n"

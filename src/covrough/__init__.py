"""Coverings of finite universes and the structure they induce.

The package models set coverings with bit-vector blocks and implements the
operators built on them: element neighborhoods and the neighborhoods family,
membership and pair repeat degrees, core blocks, reducible-element detection
and reduction, and the invariable-covering test.  An oracle enumerates every
covering of a small universe to verify the structural laws exhaustively and
to search neighborhoods preimages.  The ``covrough`` command line exposes
the same operations over JSON covering files.

``import covrough`` loads the operators only: ``errors``, ``setsys``,
``_table``, ``neighborhoods``, ``degrees`` and ``reduction``.  The oracle,
with its law checker ``_laws``, and the report load on first use, when one
of their names is first read from the package or a command needs them.
"""

from importlib import import_module

from .degrees import (
    CoreBlockAssignment,
    DegreeProfile,
    blocks_containing,
    common_block_repeat_degree,
    core_block,
    core_block_assignment,
    degree_profile,
    membership_repeat_degree,
    non_core_blocks,
)
from .errors import (
    BlockNotInCovering,
    CoveringError,
    DuplicateBlock,
    EmptyBlock,
    FileFormatError,
    InvalidUniverse,
    NotACover,
    UniverseTooLarge,
    UnknownElement,
)
from .neighborhoods import (
    NeighborhoodMap,
    RejectReason,
    cov,
    is_cov_fixed_point,
    neighborhood,
    neighborhood_map,
    quick_reject_neighborhoods,
)
from .reduction import (
    InvariabilityVerdict,
    ReducibilityReport,
    is_invariable,
    is_reducible_element,
    reducibility_report,
    reduct,
)
from .setsys import (
    Block,
    Covering,
    Universe,
    covering_from_dict,
    covering_from_json,
    covering_to_dict,
    covering_to_json,
    default_universe,
    is_partition,
    make_covering,
    read_covering,
    write_covering,
)

__version__ = "0.1.0"

# Names served on first use by ``__getattr__``, with their home modules.
_ON_FIRST_USE = {
    "CensusRow": "oracle",
    "VerificationSummary": "oracle",
    "census": "oracle",
    "enumerate_coverings": "oracle",
    "preimages": "oracle",
    "summary_to_dict": "oracle",
    "verify_laws": "oracle",
    "AnalysisReport": "report",
    "analyze": "report",
    "render_report": "report",
    "report_to_dict": "report",
}


def __getattr__(name: str):
    # Read from the home module on every access and never stored here, so
    # that whoever rebinds a name in its home module (a tracer, a test's
    # monkeypatch) is seen through the package as well.  A loaded home
    # module is bound here by the import system; reading it from there
    # takes half the time of ``import_module``.
    home = _ON_FIRST_USE.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = globals().get(home) or import_module(f"{__name__}.{home}")
    return getattr(module, name)


__all__ = [
    "AnalysisReport",
    "Block",
    "BlockNotInCovering",
    "CensusRow",
    "CoreBlockAssignment",
    "Covering",
    "CoveringError",
    "DegreeProfile",
    "DuplicateBlock",
    "EmptyBlock",
    "FileFormatError",
    "InvalidUniverse",
    "InvariabilityVerdict",
    "NeighborhoodMap",
    "NotACover",
    "ReducibilityReport",
    "RejectReason",
    "Universe",
    "UniverseTooLarge",
    "UnknownElement",
    "VerificationSummary",
    "analyze",
    "blocks_containing",
    "census",
    "common_block_repeat_degree",
    "core_block",
    "core_block_assignment",
    "cov",
    "covering_from_dict",
    "covering_from_json",
    "covering_to_dict",
    "covering_to_json",
    "default_universe",
    "degree_profile",
    "enumerate_coverings",
    "is_cov_fixed_point",
    "is_invariable",
    "is_partition",
    "is_reducible_element",
    "make_covering",
    "membership_repeat_degree",
    "neighborhood",
    "neighborhood_map",
    "non_core_blocks",
    "preimages",
    "quick_reject_neighborhoods",
    "read_covering",
    "reducibility_report",
    "reduct",
    "render_report",
    "report_to_dict",
    "summary_to_dict",
    "verify_laws",
    "write_covering",
]

"""closurelab: a numerical laboratory for tangent-chain closure porisms in
circular annuli.

The package verifies a family of closure statements for chains of inscribed
circles and tangent chords between two nested circles, and provides scanning,
locus-tracing, and certification tools for exploring which tangency words
admit closure porisms.
"""

__version__ = "0.1.0"

from ._kernels import BACKEND as KERNEL_BACKEND
from .chains import (
    CLOSED_EVERYWHERE,
    CLOSED_NOWHERE,
    MIXED,
    ChainRun,
    Word,
    is_closure_config,
    monodromy_defect,
    run_chain,
    seed_element,
)
from .errors import (
    ChainError,
    DeadEndError,
    DegeneracyError,
    DomainError,
    GeometryError,
    TieError,
)
from .geometry import (
    Annulus,
    Chord,
    Circle,
    Line,
    Point,
    Theorem1Scalars,
    closure_criterion_residual,
    euler_like_residual,
    theorem1_radii,
    theorem2_frame,
    theorem2_meeting_point,
)
from .report import Report, SceneConfig
from .search import (
    DefectGrid,
    RelationFit,
    ZeroLocus,
    certify_closure_sequence,
    enumerate_words,
    fit_relation,
    scan_defect,
    trace_zero_locus,
)
from .verification import (
    verify_sangaku,
    verify_t1,
    verify_t2,
    verify_t3,
    verify_t4,
    verify_t5,
    verify_t6,
)

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    "CLOSED_EVERYWHERE",
    "CLOSED_NOWHERE",
    "MIXED",
    "ChainRun",
    "Word",
    "is_closure_config",
    "monodromy_defect",
    "run_chain",
    "seed_element",
    "ChainError",
    "DeadEndError",
    "DegeneracyError",
    "DomainError",
    "GeometryError",
    "TieError",
    "Annulus",
    "Chord",
    "Circle",
    "Line",
    "Point",
    "Theorem1Scalars",
    "closure_criterion_residual",
    "euler_like_residual",
    "theorem1_radii",
    "theorem2_frame",
    "theorem2_meeting_point",
    "Report",
    "SceneConfig",
    "DefectGrid",
    "RelationFit",
    "ZeroLocus",
    "certify_closure_sequence",
    "enumerate_words",
    "fit_relation",
    "scan_defect",
    "trace_zero_locus",
    "verify_sangaku",
    "verify_t1",
    "verify_t2",
    "verify_t3",
    "verify_t4",
    "verify_t5",
    "verify_t6",
]

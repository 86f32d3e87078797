"""bicircle: exact rational geometry for the two-coaxial-circles chord construction.

Two circles sit on a common axis. A probe point P on a vertical line is
mapped, through chords to the inner axis points and lines back to the outer
ones, to an image point P'. This package computes that image two independent
ways (synthetic construction and closed form), proves their exact agreement
by seeded fuzzing and property tests, classifies every degenerate case, and
renders deterministic SVG figures.
"""

from .construction import (
    DEFAULT_Q_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    CaseFlag,
    FuzzFailure,
    FuzzReport,
    ImageResult,
    ProbePoint,
    classify_case,
    construct_image,
    image_closed_form,
    locus_x,
    random_probe,
    random_rational,
    random_scenario,
    run_oracle_fuzz,
    tangent_half_params,
    trial_rng,
    verify_concurrency,
)
from .errors import (
    CoincidentLines,
    DegenerateProbe,
    GeometryError,
    IdenticalPoints,
    InvalidScenario,
    ParseError,
    PointNotOnCircle,
    WrongOrdering,
    ZeroDenominator,
)
from .exact import (
    INFINITY,
    Circle,
    ExtendedPoint,
    Line,
    Point2,
    as_rational,
    line_through,
    meet,
    parse_rational,
    second_intersection,
    tangent_at,
)
from .figures import RenderSpec, layout, render_svg
from .scenario import (
    DerivedScene,
    Ordering,
    ScenarioConfig,
    derive,
    parse_scenario,
    validate,
)

__version__ = "0.1.0"

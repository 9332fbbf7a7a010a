"""Speckle reduction for multiplicative-noise imagery.

The filter replaces each pixel by the mean of the neighbourhood sub-regions
that a series of two-sample goodness-of-fit tests accepts as belonging to the
same gamma population as the central sub-region.  The package also ships a
minimum-mean-square-error baseline filter, ground-truth quality metrics and a
Monte Carlo evaluation harness.
"""

from .divergence import (
    TestConfig,
    TestOutcome,
    chi2_survival,
    hellinger_stat,
    kl_stat,
    renyi_stat,
    run_test,
    sidak_level,
)
from .errors import (
    DegenerateRegionError,
    DespeckleError,
    DomainError,
    FormatError,
    InvalidArgumentError,
    OutOfBoundsError,
)
from .gamma import (
    GAMMA_ALGORITHM_VERSION,
    L_MAX,
    FitResult,
    GammaParams,
    density,
    log_likelihood,
    mle,
    sample,
    unit_speckle,
)
from .harness import (
    SITUATIONS,
    RunPlan,
    Situation,
    corrupt,
    fast_plan,
    make_phantom,
    read_csv_rows,
    replicate_stream,
    run_protocol,
    write_csv,
)
from .lee import LeeSpec, lee_filter
from .metrics import (
    METRIC_HEADER,
    MetricReport,
    Reference,
    compute_report,
    edge_measures,
    enl,
    error_metrics,
    laplacian_correlation,
    line_contrast,
    q_index,
)
from .nmfilter import (
    FilterSpec,
    RegionMask,
    filter_image,
    filter_pixel,
    mask_table_text,
    nm_masks,
)
from .phantom import (
    PhantomGeometry,
    default_geometry,
    read_geometry,
    render_phantom,
    write_geometry,
)
from .raster import Raster, extract, pad_mirror, read_raster, write_raster

__version__ = "0.1.0"

__all__ = [
    "DegenerateRegionError",
    "DespeckleError",
    "DomainError",
    "FormatError",
    "InvalidArgumentError",
    "OutOfBoundsError",
    "Raster",
    "extract",
    "pad_mirror",
    "read_raster",
    "write_raster",
    "GAMMA_ALGORITHM_VERSION",
    "L_MAX",
    "FitResult",
    "GammaParams",
    "density",
    "log_likelihood",
    "mle",
    "sample",
    "unit_speckle",
    "TestConfig",
    "TestOutcome",
    "chi2_survival",
    "hellinger_stat",
    "kl_stat",
    "renyi_stat",
    "run_test",
    "sidak_level",
    "FilterSpec",
    "RegionMask",
    "filter_image",
    "filter_pixel",
    "mask_table_text",
    "nm_masks",
    "LeeSpec",
    "lee_filter",
    "METRIC_HEADER",
    "MetricReport",
    "Reference",
    "compute_report",
    "edge_measures",
    "enl",
    "error_metrics",
    "laplacian_correlation",
    "line_contrast",
    "q_index",
    "PhantomGeometry",
    "default_geometry",
    "read_geometry",
    "render_phantom",
    "write_geometry",
    "SITUATIONS",
    "RunPlan",
    "Situation",
    "corrupt",
    "fast_plan",
    "make_phantom",
    "read_csv_rows",
    "replicate_stream",
    "run_protocol",
    "write_csv",
    "__version__",
]

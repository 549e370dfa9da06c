"""Symbolic-numeric toolkit for the exact WKB analysis of the Pearcey system."""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    PlanePoint,
    char_roots,
    critical_values,
    p_ell,
    singular_locus_cubic,
    stokes_sextic,
    to_scaled,
    from_scaled,
    turning_discriminant,
)
from .wkb_series import (  # noqa: F401
    BorelCoeffTable,
    WkbSeriesTable,
    borel_coeffs,
    build_series,
    scaled_expansion,
)
from .borel import (  # noqa: F401
    BranchTag,
    branches_at_origin,
    branches_at_p,
    discontinuity,
    monodromy,
    psi_borel_eval,
    psi_on_cut,
    verify_annihilation,
)
from .quadrature import laplace_borel_sum, pearcey_quadrature  # noqa: F401
from .stokes import (  # noqa: F401
    PAPER_POLYLINE,
    ConnectionMatrix,
    StokesEvent,
    connection_walk,
    detect_events,
    raster_section,
    stokes_indicator,
    track_u,
)

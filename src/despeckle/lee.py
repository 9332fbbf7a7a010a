"""Lee local-statistics filter, the comparison baseline.

Multiplicative-noise MMSE form with clamped gain:

    out = mean + W * (z - mean),   W = clip(1 - Cu^2 / Cz^2, 0, 1)

where the window statistics give Cz^2 = var/mean^2 and the nominal number
of looks sets the noise variation Cu^2 = 1/L.  Flat windows (Cz <= Cu)
collapse to the window mean, strong-feature windows (Cz >> Cu) keep the
centre pixel.  Each window is worked at the power of two gamma.range_shift
gives it, the range rule that nmfilter, Q, mle, run_test and enl share, so
squares of values near 1e308 cannot overflow and the output scales back exactly.
The window mean and variance come from windows.window_moments, which adds one
flat slice of the padded image per window cell in np.sum's order: no window
is copied, and the bytes are those of np.mean and np.var(ddof=1) on the copy.
The formula runs on that flat layout too, each window that wraps from one row
into the next at the shift of its own maximum; only the image's pixels are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, check_integer
from .gamma import range_shift
from .raster import Raster, pad_for_window
from .windows import ROW_SUM_MAX, flat_cells, on_grid, window_max, window_moments


@dataclass(frozen=True)
class LeeSpec:
    window: int = 5
    nominal_looks: float = 1.0

    def __post_init__(self):
        check_integer(self.window, "window")
        if self.window % 2 == 0 or self.window < 3:
            raise InvalidArgumentError("window must be odd and >= 3")
        if self.window**2 > ROW_SUM_MAX:
            raise InvalidArgumentError(f"window must have at most {ROW_SUM_MAX} cells")
        if not np.isfinite(self.nominal_looks) or self.nominal_looks < 1.0:
            raise InvalidArgumentError("nominal_looks must be finite and >= 1")


def lee_filter(img: Raster, spec: LeeSpec) -> Raster:
    size = spec.window
    padded = pad_for_window(img, size)
    shift = range_shift(padded.min(), padded.max(), lambda: window_max(padded, size))
    mean, var = window_moments(padded, size, shift)
    centre = flat_cells(padded, size)[size * size // 2]  # the image's pixels
    scaled = np.any(shift)
    noise_cv2 = 1.0 / spec.nominal_looks
    with np.errstate(divide="ignore", invalid="ignore"):
        cz2 = var / mean**2
        gain = np.clip(1.0 - noise_cv2 / cz2, 0.0, 1.0)
    out = mean + gain * ((np.ldexp(centre, shift) if scaled else centre) - mean)
    # all-zero windows have no statistics to speak of; emit 0
    out = np.where(mean > 0, out, 0.0)
    if scaled:
        np.ldexp(out, -shift, out=out)
    return Raster(on_grid(out, padded.shape[1], size))

"""Lee local-statistics filter, the comparison baseline.

Multiplicative-noise MMSE form with clamped gain:

    out = mean + W * (z - mean),   W = clip(1 - Cu^2 / Cz^2, 0, 1)

where the window statistics give Cz^2 = var/mean^2 and the nominal number
of looks sets the noise variation Cu^2 = 1/L.  Flat windows (Cz <= Cu)
collapse to the window mean, strong-feature windows (Cz >> Cu) keep the
centre pixel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError
from .raster import Raster, pad_mirror


@dataclass(frozen=True)
class LeeSpec:
    window: int = 5
    nominal_looks: float = 1.0

    def __post_init__(self):
        if self.window % 2 == 0 or self.window < 3:
            raise InvalidArgumentError("window must be odd and >= 3")
        if not np.isfinite(self.nominal_looks) or self.nominal_looks < 1.0:
            raise InvalidArgumentError("nominal_looks must be finite and >= 1")


def lee_filter(img: Raster, spec: LeeSpec) -> Raster:
    if img.width < spec.window or img.height < spec.window:
        raise InvalidArgumentError(
            f"image {img.height}x{img.width} smaller than the {spec.window}x{spec.window} window"
        )
    half = spec.window // 2
    # Work on the image scaled by a power of two that puts its maximum just
    # below 2^500: squares of the window values cannot overflow, and the
    # scaling is exact both ways, so in-range images give the same bytes.
    _, exponent = np.frexp(img.array.max())
    shift = 500 - int(exponent)
    z = np.ldexp(img.array, shift)
    padded = pad_mirror(Raster(z), half).array
    wins = sliding_window_view(padded, (spec.window, spec.window))
    wins = wins.reshape(img.height, img.width, -1)
    mean = wins.mean(axis=2)
    var = wins.var(axis=2, ddof=1)
    noise_cv2 = 1.0 / spec.nominal_looks
    with np.errstate(divide="ignore", invalid="ignore"):
        cz2 = var / mean**2
        gain = np.clip(1.0 - noise_cv2 / cz2, 0.0, 1.0)
    out = mean + gain * (z - mean)
    # all-zero windows have no statistics to speak of; emit 0
    out = np.where(mean > 0, out, 0.0)
    return Raster(np.ldexp(out, -shift))

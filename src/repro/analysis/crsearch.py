"""Find the error bound that hits a target compression ratio.

Fig. 11 compares codecs at the *same* compression ratio (65 on
SCALE-LETKF); CR is monotone in the bound, so a bisection on log10(eb)
converges in a few compressions.  A codec whose CR range over the bound
interval does not reach the target (ZFP tops out at CR 20-30 at
``rel_eb = 0.1`` on the Fig. 11 field) raises :class:`CRNotReachedError`
instead of handing back a point at the wrong CR.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.compressors.base import Compressor
from repro.errors import ReproError
from repro.metrics import compression_ratio


class CRNotReachedError(ReproError):
    """No bound in the search interval came within ``rel_tol`` of the
    target compression ratio; ``reached`` is the (lowest, highest) CR the
    search saw and ``closest`` its ``(rel_eb, cr, blob)`` nearest the
    target."""

    def __init__(
        self,
        target_cr: float,
        rel_tol: float,
        reached: Tuple[float, float],
        closest: Tuple[float, float, bytes],
    ) -> None:
        super().__init__(
            f"CR {target_cr:g} (within {rel_tol:.0%}) not reached: the "
            f"search saw CR {reached[0]:.4g}-{reached[1]:.4g}, closest "
            f"{closest[1]:.4g} at rel_eb {closest[0]:.3g}"
        )
        self.reached = reached
        self.closest = closest


def find_error_bound_for_cr(
    codec: Compressor,
    data: np.ndarray,
    target_cr: float,
    rel_tol: float = 0.05,
    lo: float = 1e-6,
    hi: float = 1e-1,
    max_iter: int = 18,
) -> Tuple[float, float, bytes]:
    """Bisection for the relative bound achieving ``target_cr``.

    Returns ``(rel_eb, achieved_cr, blob)`` for the first bound whose CR
    is within ``rel_tol`` of the target; raises :class:`CRNotReachedError`
    when none of ``max_iter`` bounds in ``[lo, hi]`` is.
    """
    llo, lhi = np.log10(lo), np.log10(hi)
    best = None
    crs = []
    for _ in range(max_iter):
        mid = 0.5 * (llo + lhi)
        rel_eb = float(10.0**mid)
        blob = codec.compress(data, rel_error_bound=rel_eb)
        cr = compression_ratio(data, blob)
        crs.append(cr)
        if best is None or abs(np.log(cr / target_cr)) < abs(
            np.log(best[1] / target_cr)
        ):
            best = (rel_eb, cr, blob)
        if abs(cr - target_cr) <= rel_tol * target_cr:
            return rel_eb, cr, blob
        if cr < target_cr:
            llo = mid  # need a looser bound
        else:
            lhi = mid
    raise CRNotReachedError(target_cr, rel_tol, (min(crs), max(crs)), best)

"""The signal model S^b = sum_t F_t R_t^b Y_t^b written out per shell and tissue.

An independent reference for the tests: `classical_csd.system_matrix`
stacks the same products into one operator, and the ESD reconstruction
loss applies that operator.
"""

import numpy as np

from sphdecon import harmonics as sh
from sphdecon import signal_model as sm
from sphdecon.errors import InvalidArgumentError


def forward(F: dict, rfs: dict, basis: sh.ShBasis, gradients: sm.GradientTable) -> np.ndarray:
    """Predict signals from fODF coefficients.

    F maps tissue name to a (V, L_t) coefficient matrix (L_t = basis.L for
    wm, 1 for gm/csf). Returns (V, total_samples) in the table's column order.
    """
    n_vox = None
    for t, coeffs in F.items():
        lt = sm.tissue_basis(basis, t).L
        if coeffs.ndim != 2 or coeffs.shape[1] != lt:
            raise InvalidArgumentError(
                f"fODF for {t} has shape {coeffs.shape}, expected (V, {lt})"
            )
        if n_vox is None:
            n_vox = coeffs.shape[0]
        elif coeffs.shape[0] != n_vox:
            raise InvalidArgumentError("tissue fODF matrices disagree on voxel count")

    out = np.zeros((n_vox, gradients.total_samples))
    for b in gradients.shells:
        acc = out[:, gradients.columns(b)]
        for t, coeffs in F.items():
            tb = sm.tissue_basis(basis, t)
            Y = sh.design_matrix(tb, gradients.directions[b])
            acc += (coeffs * sm.rf_diagonal(rfs[t], tb, b)) @ Y
    if gradients.b0_count > 0:
        col = np.zeros((n_vox, 1))
        for t, coeffs in F.items():
            tb = sm.tissue_basis(basis, t)
            d0 = sm.rf_diagonal(rfs[t], tb, 0)[0]
            col += coeffs[:, :1] * (d0 / np.sqrt(4 * np.pi))
        out[:, gradients.columns(0)] = col
    return out

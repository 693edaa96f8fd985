"""Full-layout references for the band-layout analysis.

The analysis keeps every spectral field on the two-thirds band
(spectral.Band).  These helpers form the same fields in the full
half-complex layout (n, n, n//2+1), the way the analysis did before it moved
to the band, from a band field scattered to the full layout: the filter
multiplier from the kernel's samples, the product Pi dealiased, and the
stress dealiased.  Gathered to the band, each must equal the band pass's
field (array_equal: the full layout's dealias multiplies by 1.0, which may
flip the sign of a zero).  hermitian_defect checks the conjugate symmetry
that a real field's full-layout coefficients must have.
"""

import numpy as np

from nslab.spectral import VOLUME, dealias, gradient, leray_project, tensor_divergence


def full_multiplier(grid, kernel):
    """The filter multiplier m(k) on the whole half spectrum, as make_kernel
    forms it before keeping its band."""
    mult = np.ascontiguousarray((VOLUME * grid.forward(kernel.samples)).real)
    mult[0, 0, 0] = 1.0
    return mult


def full_stress(grid, kernel, u_full):
    """(ubar_hat, R_hat) in the full layout: ubar = m u and the nine-component
    R = dealias(m * dealias((u_i u_j)^) - (ubar_i ubar_j)^)."""
    m = full_multiplier(grid, kernel)
    u = grid.inverse(dealias(grid, u_full))
    filtered = m * dealias(grid, grid.forward(np.einsum("ixyz,jxyz->ijxyz", u, u)))
    ub_hat = m * u_full
    ubar = grid.inverse(ub_hat)
    resolved = grid.forward(np.einsum("ixyz,jxyz->ijxyz", ubar, ubar))
    return ub_hat, dealias(grid, filtered - resolved)


def full_minimizer_fields(grid, kernel, u_full):
    """(ubar, R, b, w) of one pair in the full layout: J = nu grad ubar - R,
    b = P div J and the unconstrained minimizer w = -b / |k|^2."""
    ub_hat, r_hat = full_stress(grid, kernel, u_full)
    j_hat = grid.nu * gradient(grid, ub_hat) - r_hat
    b_hat = leray_project(grid, tensor_divergence(grid, j_hat))
    return ub_hat, r_hat, b_hat, -b_hat * grid.inv_k_sq


def hermitian_defect(grid, f_hat):
    """Max deviation from conjugate symmetry on the self-conjugate planes.

    In the half-complex layout only the k3 = 0 and k3 = n/2 planes contain
    redundant modes; on those planes f(-k1, -k2) must equal conj(f(k1, k2)).
    Returns the max absolute defect relative to the field's max magnitude.
    """
    defect = 0.0
    for plane in (0, grid.nh - 1):
        sl = f_hat[..., plane]
        mirrored = np.flip(np.roll(sl, (-1, -1), axis=(-2, -1)), axis=(-2, -1))
        defect = max(defect, float(np.abs(sl - np.conj(mirrored)).max()))
    scale = float(np.abs(f_hat).max())
    return defect / max(scale, 1e-300)

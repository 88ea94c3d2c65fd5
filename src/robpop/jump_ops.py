"""Quadrature rows for the jump expectations and the worst-case jump operators.

Each mesh node gets one nonnegative weight row W[i, :] such that (W @ phi)[i]
approximates the expectation of phi at the post-jump state: a downward jump
maps x to (1-z)x, an upward jump maps x to z + (1-z)x, with z drawn from the
jump-size density, a piecewise-linear table sampled at the midpoints of its
support. Rows are renormalized to sum exactly to one so constants
pass through the expectation unchanged, which is what keeps the discrete
operators comparison-preserving.

The worst-case intensity distortion has the closed form theta* = exp(-psi *
delta) with delta = phi(x) - E[phi(post-jump)]; the distorted operator value
it attains, (nu/psi) * (1 - exp(-psi * delta)), is not needed by the scheme.
A solve stacks W1's rows over W2's into one jump matrix; `apply_nonlocal`
applies it to each field of a batch in turn, one mat-vec per field giving
both jump kinds' expectations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.sparse as sp

from .grid import Mesh
from .model import JumpDensity

TransformKind = Literal["down", "up"]
N_QUAD = 64     # default quadrature points of a jump expectation


def entropy_penalty(theta):
    """Relative-entropy rate theta ln theta + 1 - theta, with 0 ln 0 = 0."""
    theta = np.asarray(theta, dtype=float)
    # one log; the guard keeps log(0) from being evaluated
    return theta * np.log(np.where(theta == 0.0, 1.0, theta)) + 1.0 - theta


@dataclass(frozen=True, eq=False)
class JumpQuadrature:
    weights: sp.csr_matrix      # rows sum to 1; W @ phi is the expectation


def post_jump(kind: TransformKind, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The state after a jump of size z from x."""
    if kind == "down":
        return (1.0 - z) * x
    return z + (1.0 - z) * x


def build_jump_quadrature(mesh: Mesh, density: JumpDensity,
                          transform_kind: TransformKind,
                          n_quad: int = N_QUAD) -> JumpQuadrature:
    """Midpoint-rule quadrature of the jump expectation, one row per node."""
    if n_quad < 2:
        raise ValueError("n_quad must be >= 2")
    if transform_kind not in ("down", "up"):
        raise ValueError(f"unknown transform kind {transform_kind!r}")
    lo, hi = density.xs[0], density.xs[-1]
    dz = (hi - lo) / n_quad
    z = lo + (np.arange(n_quad) + 0.5) * dz
    w = density(z) * dz
    # a valid density can still vanish at every quadrature point
    if not 0.0 < w.sum():
        raise ValueError(f"the {n_quad} quadrature points carry no mass of "
                         f"the jump density")

    n = mesh.n_nodes
    ys = np.clip(post_jump(transform_kind, z[None, :], mesh.nodes[:, None]), 0.0, 1.0)
    idx, rw = mesh.locate(ys.ravel())
    rows = np.repeat(np.arange(n), z.size)
    w_flat = np.tile(w, n)
    data = np.concatenate([w_flat * (1.0 - rw), w_flat * rw])
    cols = np.concatenate([idx, idx + 1])
    mat = sp.coo_matrix((data, (np.concatenate([rows, rows]), cols)),
                        shape=(n, n)).tocsr()
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    inv = sp.diags(1.0 / row_sums)
    return JumpQuadrature(weights=(inv @ mat).tocsr())


def apply_nonlocal(quad: JumpQuadrature, phi: np.ndarray, psi, theta_max):
    """The jump gaps and their worst-case intensity factors.

    `quad` holds m blocks of n rows, one per jump kind (a solve's stacked
    W1 and W2, or a single W), and is applied to each field of phi in turn:
    a field of shape (n,), or k fields of shape (k, n). Returns (delta,
    theta_star), each of shape (m,) + phi.shape, with delta = phi - W phi and
    theta_star = exp(-psi delta) clamped into [0, theta_max]; psi and
    theta_max broadcast against them.
    """
    if not np.asarray(psi).min() > 0.0:
        raise ValueError("psi must be > 0")
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[-1]
    # one field skips the loop, whose bookkeeping took about 4% of a policy
    # iterate of a batch of one on 200 cells (2-vCPU VM)
    if phi.size == n:
        expect = (quad.weights @ phi.ravel()).reshape((-1,) + phi.shape)
    else:
        expect = np.empty((quad.weights.shape[0] // n,) + phi.shape)
        for j, row in enumerate(phi):
            expect[:, j] = (quad.weights @ row).reshape(-1, n)
    delta = phi - expect
    theta_star = np.minimum(np.exp(-psi * delta), theta_max)
    return delta, theta_star

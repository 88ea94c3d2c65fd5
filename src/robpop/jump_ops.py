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
`block_quadrature` stacks the quadratures of both jump kinds, once per field
of a batch, into one matrix, so that one mat-vec gives every expectation.
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
    if not (0.0 < lo < hi < 1.0):
        raise ValueError("jump density support must satisfy 0 < lo < hi < 1")

    dz = (hi - lo) / n_quad
    z = lo + (np.arange(n_quad) + 0.5) * dz
    w = density(z) * dz
    # written as "not within bound" so that a NaN or inf weight fails
    if not (np.all(w >= 0.0) and 0.0 < w.sum() < np.inf):
        raise ValueError("jump density must be nonnegative with positive mass")

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


def block_quadrature(quads, copies: int) -> JumpQuadrature:
    """One quadrature over `copies` fields laid end to end.

    Its rows are, for each of `quads` in turn, that quadrature's rows once
    per field, each copy reading its own field's columns; so W @ phi.ravel(),
    for phi of shape (copies, n), holds every quadrature's expectation of
    every field. Built from each W's own index arrays, so every row keeps the
    order of its entries and each expectation is bitwise its own quadrature's.
    """
    n = quads[0].weights.shape[1]
    parts = [(quad.weights, j * n) for quad in quads for j in range(copies)]
    starts = np.cumsum([0] + [w.indptr[-1] for w, _ in parts])
    indptr = np.concatenate([[0]] + [w.indptr[1:] + start
                                     for (w, _), start in zip(parts, starts)])
    indices = np.concatenate([w.indices + offset for w, offset in parts])
    data = np.concatenate([w.data for w, _ in parts])
    return JumpQuadrature(weights=sp.csr_matrix(
        (data, indices, indptr), shape=(len(parts) * n, copies * n)))


def apply_nonlocal(quad: JumpQuadrature, phi: np.ndarray, psi, theta_max):
    """The jump gaps and their worst-case intensity factors.

    `quad` holds m blocks of rows, each the size of phi (a field of shape
    (n,), or k fields of shape (k, n), as `block_quadrature` lays them out).
    Returns (delta, theta_star), each of shape (m,) + phi.shape, with delta
    = phi - W phi and theta_star = exp(-psi delta) clamped into [0,
    theta_max]; psi and theta_max broadcast against them.
    """
    if not np.asarray(psi).min() > 0.0:
        raise ValueError("psi must be > 0")
    phi = np.asarray(phi, dtype=float)
    delta = phi - (quad.weights @ phi.ravel()).reshape(-1, *phi.shape)
    theta_star = np.minimum(np.exp(-psi * delta), theta_max)
    return delta, theta_star

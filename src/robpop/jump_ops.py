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
`build_jump_quadrature` builds the rows of several (density, kind) pairs
as one matrix, each pair's block below the last: a solve's W holds W1's rows
over W2's. `apply_nonlocal` applies it to each field of a batch in turn, one
mat-vec per field giving both jump kinds' expectations.
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


def build_jump_quadrature(mesh: Mesh, jumps,
                          n_quad: int = N_QUAD) -> JumpQuadrature:
    """Midpoint-rule quadrature of the jump expectations of `jumps`, a
    sequence of (density, kind) pairs: one block of n rows per pair, the
    blocks stacked in the order given.

    Each node's quadrature points are written straight into CSR arrays,
    every point as two entries (the ends of the cell it falls in); then
    duplicate columns are summed, zeros dropped and each row scaled by
    1 / its sum in place. The rows come out sorted by column, each pair's
    bitwise what a build of that pair alone gives.
    """
    if n_quad < 2:
        raise ValueError("n_quad must be >= 2")
    jumps = tuple(jumps)
    n = mesh.n_nodes
    # entry (p, i, s, k): point k of node i of pair p, at the left (s = 0)
    # or right (s = 1) end of its cell
    cols = np.empty((len(jumps), n, 2, n_quad), dtype=np.int32)
    vals = np.empty(cols.shape)
    for p, (density, kind) in enumerate(jumps):
        _fill_rows(cols[p], vals[p], mesh, density, kind)
    weights = sp.csr_matrix(
        (vals.reshape(-1), cols.reshape(-1),
         np.arange(0, vals.size + 1, 2 * n_quad)), shape=(len(jumps) * n, n))
    del cols, vals
    weights.sum_duplicates()
    weights.eliminate_zeros()
    row_sums = np.add.reduceat(weights.data, weights.indptr[:-1])
    weights.data *= np.repeat(1.0 / row_sums, np.diff(weights.indptr))
    # the compaction above keeps views into the blocks when more than half
    # of their entries survive; a copy of each, one at a time, frees them
    weights.data = weights.data.copy()
    weights.indices = weights.indices.copy()
    return JumpQuadrature(weights=weights)


def _fill_rows(cols: np.ndarray, vals: np.ndarray, mesh: Mesh,
               density: JumpDensity, kind: TransformKind) -> None:
    """Write one pair's columns and weights into its (n, 2, n_quad) blocks.

    A function of its own so that its (n, n_quad) temporaries are freed
    before the next pair's are made.
    """
    if kind not in ("down", "up"):
        raise ValueError(f"unknown transform kind {kind!r}")
    n_quad = cols.shape[-1]
    lo, hi = density.xs[0], density.xs[-1]
    dz = (hi - lo) / n_quad
    z = lo + (np.arange(n_quad) + 0.5) * dz
    w = density(z) * dz
    # a valid density can still vanish at every quadrature point
    if not 0.0 < w.sum():
        raise ValueError(f"the {n_quad} quadrature points carry no mass of "
                         f"the jump density")
    ys = np.clip(post_jump(kind, z, mesh.nodes[:, None]), 0.0, 1.0)
    idx, rw = mesh.locate(ys)
    cols[:, 0] = idx
    np.add(cols[:, 0], 1, out=cols[:, 1])
    np.subtract(1.0, rw, out=vals[:, 0])
    vals[:, 0] *= w
    np.multiply(w, rw, out=vals[:, 1])


def apply_nonlocal(quad: JumpQuadrature, phi: np.ndarray, psi, theta_max):
    """The jump gaps and their worst-case intensity factors.

    `quad` holds m blocks of n rows, one per (density, kind) pair of its
    build (a solve's W1 over W2, or a single W), and is applied to each
    field of phi in turn: a field of shape (n,), or k fields of shape
    (k, n). Returns (delta, theta_star), each of shape (m,) + phi.shape, with
    delta = phi - W phi and theta_star = exp(-psi delta) clamped into
    [0, theta_max]; psi and theta_max broadcast against them.
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

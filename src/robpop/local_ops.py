"""The two pointwise continuous-control optimizers of the backward step.

The decision-maker's intervention q maximizes -r(q) a(x) p - h(q) over the
discrete candidate table (q_k, r(q_k), h(q_k)) built once per solve by
:func:`q_candidates` (ties broken toward the smallest q, i.e. toward no
intervention); nature's drift distortion lambda minimizes the quadratic
-sigma lambda a(x) p + lambda^2 / (2 psi0) in closed form with clamping to
[-lambda_max, lambda_max]. Both work on whole node arrays of shape (k, n),
one row per spec of a batch (q's candidate table too: (3, k, m)), and return
the maximizers only: the step never reads the objective values they attain.
"""

from __future__ import annotations

import numpy as np

from .model import ProblemSpec


def lambda_field(scale, bound, p_vals: np.ndarray) -> np.ndarray:
    """Worst-case drift distortion clip(psi0 sigma a p, -bound, bound).

    `scale` is the row psi0 sigma a(x) and `bound` is lambda_max; both
    broadcast against the slopes p.
    """
    return np.minimum(np.maximum(scale * p_vals, -bound), bound)


def q_candidates(spec: ProblemSpec):
    """Candidate table (q_k, r(q_k), h(q_k)) that :func:`q_field` searches."""
    qs = spec.q_grid()
    return (qs, np.asarray(spec.growth_rate_r(qs), dtype=float),
            np.asarray(spec.cost_h(qs), dtype=float))


def q_field(table, a_vals: np.ndarray, p_vals: np.ndarray):
    """Vectorized discrete argmax of -r(q) a p - h(q); first (smallest) q wins ties.

    `table` stacks the k specs' :func:`q_candidates` tables to shape (3, k,
    m), one spec per row of a p, as `SchemeOperators.q_table` holds them.
    Returns (q_star, r_at_q_star, h_at_q_star), shaped like a p.
    """
    qs, r_vals, h_vals = table
    ap = a_vals * p_vals
    objective = -(r_vals[:, :, None] * ap[:, None, :]) - h_vals[:, :, None]
    k = (objective.argmax(axis=1)
         + r_vals.shape[1] * np.arange(len(r_vals))[:, None])
    return qs.ravel()[k], r_vals.ravel()[k], h_vals.ravel()[k]

"""The two pointwise continuous-control optimizers of the backward step.

The decision-maker's intervention q maximizes -r(q) a(x) p - h(q) over the
discrete candidate table (q_k, r(q_k), h(q_k)) built once per solve by
:func:`q_candidates` (ties broken toward the smallest q, i.e. toward no
intervention); nature's drift distortion lambda minimizes the quadratic
-sigma lambda a(x) p + lambda^2 / (2 psi0) in closed form with clamping to
[-lambda_max, lambda_max]. Both work on whole node arrays.
"""

from __future__ import annotations

import numpy as np

from .model import ProblemSpec


def lambda_field(spec: ProblemSpec, a_vals: np.ndarray, p_vals: np.ndarray):
    """Vectorized worst-case drift distortion and its objective value."""
    lam = np.clip(spec.psi0 * spec.sigma * a_vals * p_vals,
                  -spec.lambda_max, spec.lambda_max)
    value = -spec.sigma * lam * a_vals * p_vals + lam ** 2 / (2.0 * spec.psi0)
    return lam, value


def q_candidates(spec: ProblemSpec):
    """Candidate table (q_k, r(q_k), h(q_k)) that :func:`q_field` searches."""
    qs = spec.q_grid()
    return (qs, np.asarray(spec.growth_rate_r(qs), dtype=float),
            np.asarray(spec.cost_h(qs), dtype=float))


def q_field(table, a_vals: np.ndarray, p_vals: np.ndarray):
    """Vectorized discrete argmax of -r(q) a p - h(q); first (smallest) q wins ties.

    `table` is the output of :func:`q_candidates`. Returns (q_star,
    max_value, r_at_q_star, h_at_q_star).
    """
    qs, r_vals, h_vals = table
    objective = -np.outer(r_vals, a_vals * p_vals) - h_vals[:, None]
    k = np.argmax(objective, axis=0)
    cols = np.arange(objective.shape[1])
    return qs[k], objective[k, cols], r_vals[k], h_vals[k]

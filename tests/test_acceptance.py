"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The benchmark-resolution solves (500 cells, dt = 0.005, T = 50) are shared
session fixtures from conftest.py. Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines as they complete.
"""

from __future__ import annotations

import numpy as np
import pytest
from dataclasses import replace
from scipy.special import xlogy

import robpop as rp
from robpop.model import zero_rate
from robpop.solver import build_scheme, solve_many

from conftest import (BENCH_DT, BENCH_N_CELLS, assemble_at, jump_matrices,
                      nonlocal_at)

F_MAX = 1.0  # max of the tent disutility
HORIZON = 50.0


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_value_bounds(bench_solve_uncontrolled):
    result = bench_solve_uncontrolled
    eps = 1e-8 * F_MAX * HORIZON
    slices = ([(s.time, s.values) for s in result.snapshots]
              + [(0.0, result.final_value)])
    worst_low = min(float(values.min()) for _, values in slices)
    worst_high = max(float(values.max() - (HORIZON - t) * F_MAX)
                     for t, values in slices)
    ok = worst_low >= -eps and worst_high <= eps
    _report(1, ok, f"bounds on {len(slices)} retained slices: "
                   f"min {worst_low:.3e} >= {-eps:.1e}, "
                   f"max excess {worst_high:.3e} <= {eps:.1e}")


def test_criterion_02_degenerate_analytic_solve():
    # no noise, growth rate, migration or jumps: -phi_t = f
    spec = replace(rp.make_paper_spec(False), sigma=0.0, gamma0=0.0,
                   gamma1=0.0, nu1=0.0, nu2=0.0, growth_rate_r=zero_rate,
                   horizon=1.0)
    mesh = rp.build_mesh(200)
    result = rp.solve_backward(spec, mesh, rp.build_time_grid(1.0, 0.005))
    expected = np.asarray(spec.disutility_f(mesh.nodes), dtype=float)
    gap = float(np.max(np.abs(result.final_value - expected)))
    _report(2, gap <= 1e-10,
            f"degenerate problem reproduces f exactly: gap {gap:.3e} <= 1e-10")


def test_criterion_03_mirror_symmetry(bench_mesh, bench_time_grid):
    # the constant growth rate of the benchmark preset adds a symmetric
    # drift r*a(x) that destroys x -> 1-x equivariance, so the symmetric
    # configuration zeroes the deterministic growth (see decisions ledger)
    spec = replace(rp.make_paper_spec(False), growth_rate_r=zero_rate)
    result = rp.solve_backward(spec, bench_mesh, bench_time_grid)
    phi = result.final_value
    ctrl = result.final_controls
    scale = float(np.max(np.abs(phi)))
    phi_gap = float(np.max(np.abs(phi - phi[::-1])))
    lam_gap = float(np.max(np.abs(ctrl.lambda_star + ctrl.lambda_star[::-1])))
    th1, th2 = ctrl.theta_star
    th_gap = float(np.max(np.abs(th1 - th2[::-1])))
    ok = phi_gap <= 1e-6 * scale and lam_gap <= 1e-6 and th_gap <= 1e-6
    _report(3, ok, f"|phi(x)-phi(1-x)| {phi_gap:.2e} <= {1e-6 * scale:.2e}, "
                   f"lambda antisymmetry {lam_gap:.2e}, "
                   f"theta mirror {th_gap:.2e} (both <= 1e-6)")


def test_criterion_04_monotone_in_ambiguity(bench_mesh, bench_time_grid,
                                            bench_solve_uncontrolled):
    base = rp.make_paper_spec(False)
    specs = [replace(base, psi0=0.25), replace(base, psi0=1.0),
             replace(base, psi1=0.25, psi2=0.25), replace(base, psi1=1.0, psi2=1.0)]
    lo0, hi0, lo_j, hi_j = solve_many(specs, bench_mesh, bench_time_grid)
    mid = bench_solve_uncontrolled
    checks = []
    for axis, lo, hi in (("psi0", lo0, hi0), ("psi", lo_j, hi_j)):
        phis = [lo.final_value, mid.final_value, hi.final_value]
        means = [lo.ergodic.E_mean, mid.ergodic.E_mean, hi.ergodic.E_mean]
        node_ok = (np.all(phis[0] <= phis[1] + 1e-8)
                   and np.all(phis[1] <= phis[2] + 1e-8))
        mean_ok = means[0] <= means[1] + 1e-8 and means[1] <= means[2] + 1e-8
        range_ok = all(0.0 <= m <= F_MAX for m in means)
        checks.append(node_ok and mean_ok and range_ok)
    detail = (f"psi0 axis E: {lo0.ergodic.E_mean:.4f} <= "
              f"{mid.ergodic.E_mean:.4f} <= {hi0.ergodic.E_mean:.4f}; "
              f"psi axis E: {lo_j.ergodic.E_mean:.4f} <= "
              f"{mid.ergodic.E_mean:.4f} <= {hi_j.ergodic.E_mean:.4f}; "
              f"nodewise within 1e-8, all E in [0, {F_MAX}]")
    _report(4, all(checks), detail)


def test_criterion_05_ergodic_convergence(bench_solve_uncontrolled):
    report = bench_solve_uncontrolled.ergodic
    gate = 1e-3 * max(report.E_mean, 1.0)
    _report(5, report.E_spread <= gate,
            f"E_spread {report.E_spread:.3e} <= {gate:.1e} "
            f"(E_mean {report.E_mean:.4f})")


def test_criterion_06_reported_reference_values(bench_solve_uncontrolled,
                                                bench_solve_controlled):
    e_mean = bench_solve_uncontrolled.ergodic.E_mean
    min_no_q = float(bench_solve_uncontrolled.final_value.min())
    min_with_q = float(bench_solve_controlled.final_value.min())
    print(f"\n  computed E            = {e_mean:.4f}   (reference 0.7943)")
    print(f"  computed min phi      = {min_no_q:.3f}   (reference 38.665)")
    print(f"  computed min phi, q   = {min_with_q:.3f}   (reference 37.003)")
    ok = 0.3 < e_mean < 1.0 and min_with_q <= min_no_q
    _report(6, ok, f"E in (0.3, 1.0) and intervention lowers the minimum "
                   f"value ({min_with_q:.3f} <= {min_no_q:.3f}); exact "
                   f"reference match not verifiable (migration and jump "
                   f"densities unpublished), values reported above")


def test_criterion_07_bang_bang_structure(bench_solve_controlled, bench_mesh):
    q = bench_solve_controlled.final_controls.q_star
    levels = set(np.unique(q))
    intervals = rp.switching_points(q, bench_mesh, 0.5)
    ok = (levels <= {0.0, 1.0} and len(intervals) == 1
          and q[0] == 0.0 and q[-1] == 0.0
          and intervals[0][0] > 0.0 and intervals[0][1] < 1.0)
    _report(7, ok, f"q* levels {sorted(float(v) for v in levels)}, single "
                   f"active interval {intervals}, inactive at both boundaries")


def test_criterion_08_closed_form_vs_brute_force():
    # probe fields valued in [0, 1] keep |delta| <= 1, so every interior
    # minimizer exp(-psi delta) lies inside the [0, 3] grid for psi <= 1
    mesh = rp.build_mesh(100)
    theta_grid = np.linspace(0.0, 3.0, 10_000)
    penalty = xlogy(theta_grid, theta_grid) + 1.0 - theta_grid
    quads = [rp.build_jump_quadrature(mesh,
                                      [(rp.uniform_density(0.1, 0.9), kind)])
             for kind in ("down", "up")]
    rng = np.random.default_rng(20240818)
    worst = 0.0
    for _ in range(50):
        phi = rng.uniform(0.0, 1.0, mesh.n_nodes)
        for quad in quads:
            for nu, psi in ((1.0, 0.5), (0.5, 1.0), (2.0, 0.5)):
                values, delta, _ = nonlocal_at(quad, phi, nu, psi,
                                               theta_max=100.0)
                brute = (nu * theta_grid[:, None] * delta[None, :]
                         + (nu / psi) * penalty[:, None]).min(axis=0)
                worst = max(worst, float(np.max(np.abs(values - brute))))
    _report(8, worst <= 1e-6,
            f"50 random probe fields x 2 transforms x 3 (nu, psi): "
            f"max |closed form - grid minimum| = {worst:.2e} <= 1e-6")


def test_criterion_09_scheme_structure(bench_mesh, bench_solve_uncontrolled,
                                       bench_solve_controlled):
    spec = rp.make_paper_spec(True)
    ops = build_scheme(spec, bench_mesh)
    quad_ok = True
    for weights in jump_matrices(ops):
        dense = weights.toarray()
        quad_ok &= dense.min() >= 0.0
        quad_ok &= bool(np.max(np.abs(dense.sum(axis=1) - 1.0)) <= 1e-12)
    # every assembly during both benchmark solves already self-checks the
    # M-matrix structure (a violation raises); re-check one system explicitly
    phi = bench_solve_controlled.final_value
    ctrl = bench_solve_controlled.final_controls
    sys = assemble_at(spec, ops, BENCH_DT, ctrl, phi, phi)
    off = np.abs(sys.lower) + np.abs(sys.upper)
    m_ok = (np.all(sys.lower <= 0.0) and np.all(sys.upper <= 0.0)
            and np.all(sys.diag >= 1.0 / BENCH_DT - 1e-9)
            and np.all(sys.diag >= off - 1e-9))
    iters = np.concatenate([bench_solve_uncontrolled.iteration_stats,
                            bench_solve_controlled.iteration_stats])
    policy_ok = int(iters.max()) <= 50
    _report(9, quad_ok and m_ok and policy_ok,
            f"quadrature rows nonnegative, sums within 1e-12; assembled rows "
            f"M-matrix; policy iterations per step max {int(iters.max())} "
            f"(mean {iters.mean():.2f}) at tol 1e-9 over "
            f"{iters.size} steps")


def test_criterion_10_mc_cross_validation():
    spec = replace(rp.make_paper_spec(False), horizon=2.0)
    mesh = rp.build_mesh(200)
    result = rp.solve_backward(spec, mesh, rp.build_time_grid(2.0, 0.005),
                               record_controls=True)
    pde_value = float(np.interp(0.5, mesh.nodes, result.final_value))
    estimate = rp.simulate_value(
        spec, result.control_table,
        rp.SimConfig(dt_sim=5e-4, n_paths=100_000, master_seed=2024,
                     start_x=0.5, start_t=0.0))
    diff = abs(estimate.mean - pde_value)
    gate = 3.0 * estimate.std_err + 0.02
    _report(10, diff <= gate,
            f"PDE {pde_value:.5f} vs MC {estimate.mean:.5f} "
            f"+- {estimate.std_err:.5f} ({estimate.n_paths} paths): "
            f"|diff| {diff:.5f} <= {gate:.5f}")


def test_criterion_11_grid_refinement_stability(bench_solve_uncontrolled,
                                                bench_time_grid):
    coarse = rp.solve_backward(rp.make_paper_spec(False), rp.build_mesh(250),
                               bench_time_grid)
    e_fine = bench_solve_uncontrolled.ergodic.E_mean
    e_coarse = coarse.ergodic.E_mean
    gap = abs(e_fine - e_coarse)
    _report(11, gap <= 0.01,
            f"|E({BENCH_N_CELLS}) - E(250)| = |{e_fine:.5f} - "
            f"{e_coarse:.5f}| = {gap:.5f} <= 0.01")

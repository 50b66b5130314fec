"""Acceptance suite: closed-form disc oracles and property gates.

Each test covers one numbered criterion at its stated tolerance and
prints a pass/fail line (visible with pytest -s / -rA).  The disc grid
is the 21 x 21 sampling of the box [-0.8, 0.8]^2 clipped to the open
unit disc with the finite-difference stencil margin; Richardson
extrapolation is switched on, since the plain second-order stencils
cannot reach the 1e-8 connection tolerance near the boundary.
"""

import time

import numpy as np

from bck.chern import (
    FdSteps,
    MetricField,
    chern_connection,
    curvature,
    dual_curvature_check,
    hs_connection_check,
    metric_from_kernel,
    subbundle_split,
)
from bck.grids import ChartGrid
from bck.kernels import (
    ConstantKernel,
    DiscPowerKernel,
    RkhsModel,
    SectionKernel,
    evaluation_adjoint_check,
    gram,
    lemma51_consistency,
    psd_check,
    reproducing_check,
    rkhs_inner,
    universal_grassmann,
)
from bck.positivity import griffiths_verdict
from bck.selfcheck import run_selfcheck

from _fields import cmat, disc_connection, disc_curvature, full_rank_sections

STEPS = FdSteps(first=1e-5, second=1e-4, richardson=True)
GRID = ChartGrid.square(-0.8, 0.8, 21)
MARGIN = 4.0 * STEPS.max_step


def disc_grid_points():
    return GRID.interior_points(DiscPowerKernel(1), margin=MARGIN)


def seeded_disc_points(rng, count, radius):
    out = []
    while len(out) < count:
        z = rng.uniform(-radius, radius) + 1j * rng.uniform(-radius, radius)
        if abs(z) <= radius:
            out.append([z])
    return np.array(out)


def report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_01_disc_curvature_closed_form():
    pts = disc_grid_points()
    for nu in (1, 2, 3):
        metric = metric_from_kernel(DiscPowerKernel(nu))
        start = time.perf_counter()
        worst = 0.0
        for z in pts:
            value = curvature(metric, z, STEPS).form.r11[0, 0, 0, 0]
            ref = disc_curvature(nu, z[0])
            worst = max(worst, abs(value - ref) / abs(ref))
        elapsed = time.perf_counter() - start
        report(
            f"criterion 1 (disc curvature, nu={nu})",
            worst <= 1e-5 and elapsed <= 5.0,
            f"max rel err {worst:.3e} (tol 1e-05), {elapsed:.2f} s on "
            f"{pts.shape[0]} points (limit 5 s)",
        )


def test_criterion_02_disc_connection_closed_form():
    pts = disc_grid_points()
    for nu in (1, 2, 3):
        metric = metric_from_kernel(DiscPowerKernel(nu))
        worst = 0.0
        for z in pts:
            value = chern_connection(metric, z, STEPS).form.p[0, 0, 0]
            worst = max(worst, abs(value - disc_connection(nu, z[0])))
        report(
            f"criterion 2 (disc connection, nu={nu})",
            worst <= 1e-8,
            f"max abs err {worst:.3e} (tol 1e-08)",
        )


def test_criterion_03_curvature_linear_in_weight_power():
    pts = disc_grid_points()
    base = metric_from_kernel(DiscPowerKernel(1))
    theta1 = {tuple(z): curvature(base, z, STEPS).form.r11[0, 0, 0, 0] for z in pts}
    for nu in (2, 3):
        metric = metric_from_kernel(DiscPowerKernel(nu))
        worst = 0.0
        for z in pts:
            tn = curvature(metric, z, STEPS).form.r11[0, 0, 0, 0]
            worst = max(worst, abs(tn - nu * theta1[tuple(z)]) / abs(tn))
        report(
            f"criterion 3 (linearity in the weight power, nu={nu})",
            worst <= 1e-5,
            f"max pointwise rel deviation {worst:.3e} (tol 1e-05)",
        )


def test_criterion_04_griffiths_verdict_disc():
    pts = disc_grid_points()
    for nu in (1, 2):
        metric = metric_from_kernel(DiscPowerKernel(nu))
        result = griffiths_verdict(
            metric,
            lambda z: curvature(metric, z, STEPS),
            pts,
            directions=64,
            seed=7,
        )
        ok = result.verdict == "positive" and result.min_margin >= 2 * nu - 1e-3
        report(
            f"criterion 4 (Griffiths verdict, nu={nu})",
            ok,
            f"verdict {result.verdict}, min margin {result.min_margin:.6f} "
            f"(needs >= {2 * nu - 1e-3})",
        )


def test_criterion_05_gram_positivity():
    rng = np.random.default_rng(5)
    pts = seeded_disc_points(rng, 50, 0.9)
    for nu in (1, 2):
        margin = psd_check(gram(DiscPowerKernel(nu), pts))
        report(
            f"criterion 5 (Gram positivity, nu={nu})",
            margin >= -1e-8,
            f"eigenvalue margin {margin:.3e} on 50 seeded points (tol -1e-08)",
        )


def test_criterion_06_dual_curvature_cancels():
    pts = disc_grid_points()
    worst = 0.0
    for z in pts:
        worst = max(worst, dual_curvature_check(DiscPowerKernel(1), z, STEPS).residual)
    report(
        "criterion 6 (dual curvature)",
        worst <= 1e-5,
        f"max residual of Theta_dual + Theta: {worst:.3e} (tol 1e-05)",
    )


def test_criterion_07_reproducing_and_adjoint_identities():
    rng = np.random.default_rng(7)
    cases = 0
    worst = 0.0
    for trial in range(34):
        nu = 1 + trial % 2
        spec = DiscPowerKernel(nu)
        pts = seeded_disc_points(rng, 3, 0.7)
        model = RkhsModel(spec, pts)
        basis = np.eye(1, dtype=complex)
        # pairing of two generators agrees with the assembled Gram entry
        c = np.zeros((3, 1), dtype=complex)
        d = np.zeros((3, 1), dtype=complex)
        c[trial % 3, 0] = 1.0
        d[(trial + 1) % 3, 0] = 1.0
        direct = rkhs_inner(
            spec, (basis[0], pts[trial % 3]), (basis[0], pts[(trial + 1) % 3])
        )
        worst = max(worst, abs(model.gram_inner(c, d) - direct))
        cases += 1
        # reproducing identity on a random 3-generator span element
        coeffs = cmat(rng, 3, 1)
        target = seeded_disc_points(rng, 1, 0.7)[0]
        worst = max(worst, reproducing_check(model, coeffs, np.array([1.0]), target))
        cases += 1
        # adjointness of evaluation against the kernel sections
        s, t = seeded_disc_points(rng, 2, 0.7)
        worst = max(
            worst, evaluation_adjoint_check(spec, s, t, np.array([1.0]), np.array([1.0]))
        )
        cases += 1
    report(
        "criterion 7 (reproducing/adjoint identities)",
        cases >= 100 and worst <= 1e-9,
        f"{cases} seeded cases, max residual {worst:.3e} (tol 1e-09)",
    )


def test_criterion_08_hilbert_schmidt_connection():
    rng = np.random.default_rng(8)
    disc = DiscPowerKernel(1)
    worst = 0.0
    cases = 0
    for trial in range(10):  # scalar cases
        z = seeded_disc_points(rng, 1, 0.6)[0]
        h1 = MetricField(lambda w: np.array([[1.0 / (1 - abs(w[0]) ** 2)]]), 1, 1, domain=disc)
        scale = 0.5 + rng.uniform(0.0, 1.0)
        h2 = MetricField(lambda w, s=scale: np.array([[s * (1 + abs(w[0]) ** 2)]]), 1, 1)
        worst = max(worst, hs_connection_check(h1, h2, z, STEPS))
        cases += 1
    for trial in range(10):  # 2 x 2 polynomial-metric cases
        m1 = rng.standard_normal((2, 2))
        m2 = rng.standard_normal((2, 2))
        h1 = MetricField(lambda w, m=m1: np.eye(2) + 0.3 * abs(w[0]) ** 2 * (m @ m.T), 1, 2)
        h2 = MetricField(lambda w, m=m2: np.eye(2) + 0.3 * abs(w[0]) ** 2 * (m @ m.T), 1, 2)
        z = np.array([0.2 + 0.05j * trial])
        worst = max(worst, hs_connection_check(h1, h2, z, STEPS))
        cases += 1
    report(
        "criterion 8 (operator-bundle connection)",
        cases == 20 and worst <= 1e-6,
        f"{cases} seeded cases, max residual {worst:.3e} (tol 1e-06)",
    )


def test_criterion_09_subbundle_curvature_identity():
    rng = np.random.default_rng(9)
    flat = metric_from_kernel(ConstantKernel(np.eye(2)))
    frame = lambda z: np.array([[1.0], [z[0]]], dtype=complex)
    pts = np.vstack([seeded_disc_points(rng, 12, 0.8), [[0.0]], [[0.79 + 0.0j]]])
    worst_identity = 0.0
    worst_theta = 0.0
    for z in pts:
        split = subbundle_split(flat, frame, z, STEPS)
        worst_identity = max(worst_identity, split.identity_residual)
        ref = 1.0 / (1 + abs(z[0]) ** 2) ** 2
        worst_theta = max(worst_theta, abs(split.theta_sub[0, 0, 0, 0] - ref))
    ok = worst_identity <= 1e-4 and worst_theta <= 1e-5
    report(
        "criterion 9 (subbundle curvature identity)",
        ok,
        f"max identity residual {worst_identity:.3e} (tol 1e-04), "
        f"max induced-curvature err {worst_theta:.3e} (tol 1e-05)",
    )


def test_criterion_10_forms_invariant_suite():
    entries = run_selfcheck(seed=0)
    failed = [e for e in entries if not e["passed"]]
    report(
        "criterion 10 (forms invariant suite)",
        not failed,
        f"{len(entries)} checks, failures: {[e['name'] for e in failed]}",
    )


def test_criterion_11_kernel_metrics_end_to_end():
    rng = np.random.default_rng(11)
    worst = np.inf
    for trial in range(10):
        spec = SectionKernel(full_rank_sections(rng, 1, 1, extra=1 + trial % 3))
        pts = 0.6 * cmat(rng, 6, 1)
        # premise gates: holomorphy of the kernel sections and admissibility
        from bck.forms import cauchy_riemann_residual
        from bck.kernels import admissibility

        w0 = pts[0]
        cr = cauchy_riemann_residual(
            lambda z: spec.eval(z, w0) @ np.array([1.0]), pts, 1e-5, richardson=True
        )
        assert spec.holomorphic and cr <= 1e-6
        assert all(admissibility(spec, z).invertible for z in pts)
        metric = metric_from_kernel(spec)
        result = griffiths_verdict(
            metric, lambda z: curvature(metric, z, STEPS), pts, directions=16, seed=trial
        )
        assert result.verdict != "indefinite", trial
        worst = min(worst, result.min_margin)
    disc_ok = True
    pts = disc_grid_points()[::9]
    for nu in (1, 2, 3):
        metric = metric_from_kernel(DiscPowerKernel(nu))
        result = griffiths_verdict(
            metric, lambda z: curvature(metric, z, STEPS), pts, directions=16, seed=0
        )
        disc_ok = disc_ok and result.verdict == "positive"
    report(
        "criterion 11 (kernel-metric positivity end to end)",
        worst >= -1e-6 and disc_ok,
        f"10 seeded section kernels, min margin {worst:.3e} (tol -1e-06); "
        f"disc weights strictly positive: {disc_ok}",
    )


def test_criterion_12_invertibility_criteria_agree():
    rng = np.random.default_rng(12)
    checked = 0
    for trial in range(20):
        kind = trial % 5
        if kind == 0:
            spec, s = DiscPowerKernel(1 + trial % 3), seeded_disc_points(rng, 1, 0.8)[0]
            expect = True
        elif kind == 1:
            spec = SectionKernel(full_rank_sections(rng, 1, 2))
            s = 0.5 * cmat(rng, 1)
            expect = True
        elif kind == 2:
            spec = universal_grassmann(3, 1)
            s = 0.5 * cmat(rng, 2)
            expect = True
        elif kind == 3:  # constructed failure: degenerate constant block
            spec = ConstantKernel(np.diag([1.0, 0.0]))
            s = cmat(rng, 1)
            expect = False
        else:  # constructed failure: sections vanishing at the origin
            spec = SectionKernel(lambda z: np.array([[z[0], z[0] ** 2]], dtype=complex))
            s = np.zeros(1)
            expect = False
        rep = lemma51_consistency(spec, s, seed=trial)
        assert rep.consistent, (trial, rep)
        assert rep.invertible == expect, (trial, rep)
        checked += 1
    report(
        "criterion 12 (four invertibility criteria agree)",
        checked == 20,
        f"{checked} seeded cases, all four assertions pairwise consistent",
    )

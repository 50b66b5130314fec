"""Configuration-driven analysis runs and the command-line entry point.

A single JSON document selects a kernel, a sampling grid, finite
difference steps, tolerances and a set of tasks; the run emits a JSON
report (atomically: write to a temporary file, then rename) and,
optionally, CSV field tables for external plotting.  Identical config
and seed produce byte-identical reports except for the wall-clock
entries.

Exit codes: 0 all requested verdict tasks passed, 1 a verdict failed,
2 configuration error, 3 domain violation, 4 numeric structural error or
an internal error (any other exception).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import cached_property
from importlib import import_module
from typing import Callable

import numpy as np

from . import __version__
from .chern import (
    ConnectionField,
    CurvatureField,
    FdSteps,
    MetricField,
    analytic_curvature_field,
    chern_connection_field,
    compatibility_field,
    dual_curvature_field,
    metric_from_kernel,
    nested_curvature_field,
    subbundle_field,
)
from .errors import BckError, DomainError, SingularMetricError, StructuralError
from .forms import delbar_norms
from .grids import ChartGrid
from .kernels import (
    AdmissibilityField,
    ConstantKernel,
    DiscPowerKernel,
    GrassmannKernel,
    KernelSpec,
    SectionKernel,
    admissibility_field,
    gram,
    psd_check,
)
from .linalg import Sampler
from .polys import MatrixPolynomial
from .positivity import GriffithsReport, griffiths_verdict
from .selfcheck import run_selfcheck

__all__ = [
    "ConfigError",
    "AnalysisConfig",
    "AnalysisReport",
    "run_analyze",
    "run_selftest",
    "main",
]

REPORT_SCHEMA = "bck-report/1"

_DEFAULT_TOLERANCES = {
    "psd": 1e-8,
    "admissibility": 1e-10,
    "compatibility": 1e-5,
    "purity": 1e-5,
    "method_agreement": 5e-5,
    "dual": 1e-5,
    "subbundle": 1e-4,
    "holomorphy": 1e-6,
    "pos": 1e-6,
    "neg": 1e-6,
}


class ConfigError(BckError):
    """The configuration document is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _as_complex(value) -> complex:
    if isinstance(value, (int, float)):
        value = (value, 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(*(_finite(x, "a complex entry") for x in value))
    raise ConfigError(f"cannot read {value!r} as a complex number")


def _finite(value, what: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be a number, not {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, not {value!r}")
    return number


def _integer(value, what: str, least: int | None = None) -> int:
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be an integer, not {value!r}") from exc
    if least is not None and number < least:
        raise ConfigError(f"{what} must be >= {least}, not {value!r}")
    return number


def _section(raw: dict, key: str) -> dict:
    """raw[key] as a JSON object; an absent key reads as {}."""
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"'{key}' must be an object, not {value!r}")
    return value


def _parse_matrix(rows) -> np.ndarray:
    try:
        return np.array([[_as_complex(x) for x in row] for row in rows], dtype=complex)
    except (TypeError, ValueError, ConfigError) as exc:  # ValueError: ragged rows
        raise ConfigError(f"bad matrix literal: {exc}") from exc


def _parse_polynomial(entry, dim: int) -> dict:
    """One polynomial: a list of monomials {"c": coeff, "p": powers-of-z}.

    Returns its terms, keyed as MatrixPolynomial keys them."""
    if not isinstance(entry, list):
        raise ConfigError("a polynomial entry must be a list of monomials")
    terms = {}
    for mono in entry:
        if not isinstance(mono, dict) or "c" not in mono:
            raise ConfigError(f"bad monomial {mono!r}: need at least a coefficient 'c'")
        powers = mono.get("p", [0] * dim)
        if isinstance(powers, int):
            powers = [powers]
        if not isinstance(powers, list) or len(powers) != dim:
            raise ConfigError(f"monomial powers {powers!r} do not match dimension {dim}")
        key = (tuple(_integer(x, "a monomial power", least=0) for x in powers), (0,) * dim)
        terms[key] = terms.get(key, 0) + np.asarray(_as_complex(mono["c"]))
    return terms


def _parse_polynomial_matrix(rows, dim: int) -> MatrixPolynomial:
    """An n x m matrix of polynomial entries as one MatrixPolynomial."""
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) and r for r in rows):
        raise ConfigError("expected a nonempty matrix of polynomial entries")
    entries = [[_parse_polynomial(entry, dim) for entry in row] for row in rows]
    n, m = len(entries), len(entries[0])
    if any(len(row) != m for row in entries):
        raise ConfigError("polynomial matrix rows have unequal lengths")
    terms = {}
    for i, row in enumerate(entries):
        for j, entry in enumerate(row):
            for key, coeff in entry.items():
                terms.setdefault(key, np.zeros((n, m), dtype=complex))[i, j] += coeff
    return MatrixPolynomial(dim, terms, shape=(n, m))


def build_kernel(cfg: dict) -> KernelSpec:
    if not isinstance(cfg, dict) or "variant" not in cfg:
        raise ConfigError("kernel config must be an object with a 'variant'")
    variant = cfg["variant"]
    if variant == "disc_power":
        if "nu" not in cfg:
            raise ConfigError("disc_power needs 'nu'")
        try:
            return DiscPowerKernel(_finite(cfg["nu"], "nu"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    base_dim = _integer(cfg.get("base_dim", 1), "base_dim", least=1)
    if variant == "constant":
        if "matrix" not in cfg:
            raise ConfigError("constant kernel needs 'matrix'")
        try:
            return ConstantKernel(_parse_matrix(cfg["matrix"]), base_dim=base_dim)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if variant == "from_sections":
        if "monomials" in cfg:
            m = _integer(cfg["monomials"], "monomials")
            if m < 1 or base_dim != 1:
                raise ConfigError("'monomials' shorthand needs m >= 1 on a 1-d chart")
            entries = [[[{"c": 1, "p": [k]}] for k in range(m)]]
        elif "entries" in cfg:
            entries = cfg["entries"]
        else:
            raise ConfigError("from_sections needs 'entries' or 'monomials'")
        sections = _parse_polynomial_matrix(entries, base_dim)
        gram_matrix = _parse_matrix(cfg["gram"]) if "gram" in cfg else None
        try:
            return SectionKernel(sections, base_dim=base_dim, gram=gram_matrix)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if variant == "universal_grassmann":
        try:
            return GrassmannKernel(_integer(cfg["ambient_dim"], "ambient_dim"), _integer(cfg["rank"], "rank"))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad universal_grassmann config: {exc}") from exc
    if variant == "user_hook":
        target = cfg.get("target")
        if not isinstance(target, str) or ":" not in target:
            raise ConfigError("user_hook needs 'target' of the form 'module:function'")
        mod_name, fn_name = target.split(":", 1)
        try:
            fn = getattr(import_module(mod_name), fn_name)
        except (ImportError, AttributeError) as exc:
            raise ConfigError(f"cannot import user hook {target!r}: {exc}") from exc
        try:
            spec = fn(**cfg.get("params", {}))
        except (TypeError, ValueError) as exc:  # the factory rejects its params
            raise ConfigError(f"user hook {target!r} rejects its params: {exc}") from exc
        if not isinstance(spec, KernelSpec):
            raise ConfigError("user hook must return a KernelSpec")
        return spec
    raise ConfigError(f"unknown kernel variant {variant!r}")


def _build_grid(cfg: dict) -> tuple[ChartGrid, tuple[float, ...]]:
    """The grid and its per-axis chart scale."""
    axes = cfg.get("axes") if isinstance(cfg, dict) else None
    if not isinstance(axes, list) or not axes:
        raise ConfigError("grid config needs a nonempty 'axes' list")
    bounds, res, scale = [], [], []
    for axis in axes:
        try:
            (re_lo, re_hi), (im_lo, im_hi) = axis["re"], axis["im"]
            bounds.append([_finite(x, "a grid bound") for x in (re_lo, re_hi, im_lo, im_hi)])
            res.append([_integer(axis[key], "grid resolution", least=2) for key in ("re_res", "im_res")])
            scale.append(_finite(axis.get("scale", 1.0), "an axis scale"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad grid axis {axis!r}: {exc}") from exc
        if scale[-1] <= 0:
            raise ConfigError(f"an axis scale must be positive, not {scale[-1]!r}")
    try:
        return ChartGrid(*zip(*bounds), *zip(*res)), tuple(scale)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class AnalysisConfig:
    """Validated analysis request."""

    kernel: KernelSpec
    grid: ChartGrid
    steps: FdSteps
    tolerances: dict
    tasks: tuple[str, ...]
    seed: int
    direction_count: int
    psd_points: int
    subbundle_frame: Callable | None
    output_report: str | None
    output_csv_dir: str | None
    echo: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "AnalysisConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        kernel = build_kernel(raw.get("kernel", {}))
        grid, scale = _build_grid(raw.get("grid", {}))
        if grid.dim != kernel.base_dim:
            raise ConfigError(
                f"grid has {grid.dim} complex axes but the kernel chart has "
                f"{kernel.base_dim}"
            )
        fd_cfg = _section(raw, "fd_steps" if "fd_steps" in raw else "fd")
        steps = FdSteps(
            first=_finite(fd_cfg.get("first", 1e-5), "fd_steps.first"),
            second=_finite(fd_cfg.get("second", 1e-4), "fd_steps.second"),
            richardson=fd_cfg.get("richardson", False),
            scale=scale,
        )
        if steps.first <= 0 or steps.second <= 0:
            raise ConfigError("finite-difference steps must be positive")
        if not isinstance(steps.richardson, bool):
            raise ConfigError(f"fd_steps.richardson must be true or false, not {steps.richardson!r}")
        tolerances = dict(_DEFAULT_TOLERANCES)
        for key, value in _section(raw, "tolerances").items():
            if key not in tolerances:
                raise ConfigError(f"unknown tolerance {key!r}")
            tolerances[key] = _finite(value, f"tolerance {key!r}")
        tasks = raw.get("tasks", [])
        if not isinstance(tasks, list) or not tasks:
            raise ConfigError("'tasks' must be a nonempty list")
        unknown = [t for t in tasks if t not in TASK_ORDER]
        if unknown:
            raise ConfigError(f"unknown tasks: {unknown}")
        ordered = tuple(t for t in TASK_ORDER if t in tasks)
        directions = _section(raw, "directions")
        seed = _integer(directions.get("seed", raw.get("seed", 0)), "the seed")
        env_seed = os.environ.get("BCK_SEED")
        if env_seed is not None:
            seed = _integer(env_seed, "BCK_SEED")
        if seed < 0:
            raise ConfigError(f"the seed must be >= 0, not {seed}")
        count = _integer(directions.get("count", 64), "direction count", least=0)
        psd_points = _integer(_section(raw, "samples").get("psd_points", 50), "samples.psd_points", least=1)
        frame = None
        if "subbundle" in raw:
            sub = raw["subbundle"]
            if not isinstance(sub, dict) or "frame" not in sub:
                raise ConfigError("subbundle config needs a 'frame' polynomial matrix")
            frame = _parse_polynomial_matrix(sub["frame"], kernel.base_dim)
            n, k = frame.shape
            if n != kernel.fiber_dim or not 1 <= k <= n:
                raise ConfigError(
                    f"subbundle frame is {n} x {k}; it must be n x k with n = "
                    f"{kernel.fiber_dim}, the fiber dimension, and 1 <= k <= n"
                )
        if "subbundle" in ordered and frame is None:
            raise ConfigError("task 'subbundle' requires a 'subbundle.frame' config")
        output = _section(raw, "output")
        if not all(isinstance(output.get(key), (str, type(None))) for key in ("report", "csv_dir")):
            raise ConfigError("output.report and output.csv_dir must be paths")
        return cls(
            kernel=kernel,
            grid=grid,
            steps=steps,
            tolerances=tolerances,
            tasks=ordered,
            seed=seed,
            direction_count=count,
            psd_points=psd_points,
            subbundle_frame=frame,
            output_report=output.get("report"),
            output_csv_dir=output.get("csv_dir"),
            echo=raw,
        )


# ---------------------------------------------------------------------------
# the run context and tasks
# ---------------------------------------------------------------------------


@dataclass
class RunContext:
    """One run's config and grid, plus the fields its tasks share.

    The admissibility margins, the metric, the connection field, both
    curvature fields and the Griffiths report are each computed once, on
    first use, over all grid points; the tasks are reductions over them.
    """

    config: AnalysisConfig
    points: np.ndarray
    points_total: int

    @property
    def kernel(self) -> KernelSpec:
        return self.config.kernel

    @property
    def steps(self) -> FdSteps:
        return self.config.steps

    @property
    def tol(self) -> dict:
        return self.config.tolerances

    @cached_property
    def admissibility(self) -> AdmissibilityField:
        return admissibility_field(self.kernel, self.points, self.tol["admissibility"])

    @cached_property
    def metric(self) -> MetricField:
        return metric_from_kernel(self.kernel, self.tol["admissibility"])

    @cached_property
    def connection(self) -> ConnectionField:
        return chern_connection_field(self.metric, self.points, self.steps)

    @cached_property
    def analytic(self) -> CurvatureField:
        return analytic_curvature_field(self.metric, self.points, self.steps)

    @cached_property
    def nested(self) -> CurvatureField:
        return nested_curvature_field(self.metric, self.points, self.steps)

    @cached_property
    def griffiths(self) -> GriffithsReport:
        return griffiths_verdict(
            self.metric,
            self.analytic,
            self.points,
            directions=self.config.direction_count,
            seed=self.config.seed,
            pos_tol=self.tol["pos"],
            neg_tol=self.tol["neg"],
        )


def _point_columns(points: np.ndarray) -> list[dict]:
    cols = []
    for j in range(points.shape[1]):
        cols.append({"name": f"re_z{j + 1}", "values": points[:, j].real})
        cols.append({"name": f"im_z{j + 1}", "values": points[:, j].imag})
    return cols


def _matrix_field_columns(name: str, field: np.ndarray) -> list[dict]:
    """Flatten a coefficient field, point axis third from the end, into
    named real columns."""
    by_point = np.moveaxis(field, -3, 0)
    cols = []
    for index in np.ndindex(by_point.shape[1:]):
        tag = "_".join(str(i) for i in index)
        values = by_point[(slice(None),) + index]
        cols.append({"name": f"{name}_{tag}_re", "values": values.real})
        cols.append({"name": f"{name}_{tag}_im", "values": values.imag})
    return cols


def _task_selftest(ctx: RunContext) -> dict:
    return run_selftest(seed=ctx.config.seed)


def _task_psd(ctx: RunContext) -> dict:
    """PSD margin of the Gram matrix at `psd_points` uniform points of the
    grid box inside the kernel domain.  Each round draws only the
    shortfall, re before im per axis, so the points are the first accepted
    ones of a point-by-point rejection loop; at most 1000 draws per point."""
    rng = Sampler(ctx.config.seed)
    grid, wanted = ctx.config.grid, ctx.config.psd_points
    lo = np.stack([grid.re_lo, grid.im_lo], axis=-1)
    hi = np.stack([grid.re_hi, grid.im_hi], axis=-1)
    pts, drawn = np.empty((0, grid.dim), dtype=complex), 0
    while len(pts) < wanted:
        count = min(wanted - len(pts), 1000 * wanted - drawn)
        if count <= 0:
            raise DomainError("could not sample points inside the kernel domain")
        u = rng.uniform(lo, hi, size=(count, grid.dim, 2))
        z = u[..., 0] + 1j * u[..., 1]
        pts = np.concatenate([pts, z[ctx.kernel.contains_batch(z)]])
        drawn += count
    margin = psd_check(gram(ctx.kernel, pts))
    passed = margin >= -ctx.tol["psd"]
    return {
        "passed": bool(passed),
        "data": {"margin": float(margin), "sample_points": len(pts)},
    }


def _task_admissibility(ctx: RunContext) -> dict:
    margins = ctx.admissibility.relative_margin
    i = int(np.argmin(margins))
    passed = ctx.admissibility.invertible[i] and margins[i] >= ctx.tol["admissibility"]
    return {
        "passed": bool(passed),
        "data": {
            "min_relative_margin": float(margins[i]),
            "worst_point": ctx.points[i],
            "points": int(ctx.points.shape[0]),
        },
    }


def _disc_connection_reference(nu, z):
    return nu * np.conj(z[..., 0]) / (1.0 - np.abs(z[..., 0]) ** 2)


def _disc_curvature_reference(nu, z):
    return nu / (1.0 - np.abs(z[..., 0]) ** 2) ** 2


def _task_connection(ctx: RunContext) -> dict:
    conn = ctx.connection
    res = compatibility_field(conn)
    data = {
        "max_relative_metric_residual": float(np.max(res["metric"] / res["scale"])),
        "max_holo_defect": float(np.max(res["holo"])),
        "fields": _point_columns(ctx.points) + _matrix_field_columns("a", conn.form.p),
    }
    if isinstance(ctx.kernel, DiscPowerKernel):
        ref = _disc_connection_reference(ctx.kernel.nu, ctx.points)
        data["closed_form_max_abs_err"] = float(np.max(np.abs(conn.form.p[0, :, 0, 0] - ref)))
    passed = data["max_relative_metric_residual"] <= ctx.tol["compatibility"]
    return {"passed": bool(passed), "data": data}


def _task_curvature(ctx: RunContext) -> dict:
    analytic, nested = ctx.analytic.form.r11, ctx.nested
    scale = np.maximum(1.0, np.linalg.norm(analytic, axis=(-2, -1)).max(axis=(0, 1)))
    disagreement = np.linalg.norm(analytic - nested.form.r11, axis=(-2, -1)).max(axis=(0, 1))
    agreement = float(np.max(disagreement / scale))
    purity = float(np.max(nested.purity_residual / scale))
    data = {
        "max_method_disagreement": agreement,
        "max_relative_purity_residual": purity,
        "max_pairing_residual": float(np.max(ctx.analytic.pairing_residual)),
        "fields": _point_columns(ctx.points) + _matrix_field_columns("r11", analytic),
    }
    if isinstance(ctx.kernel, DiscPowerKernel):
        ref = _disc_curvature_reference(ctx.kernel.nu, ctx.points)
        data["closed_form_max_rel_err"] = float(np.max(np.abs(analytic[0, 0, :, 0, 0] - ref) / np.abs(ref)))
    passed = agreement <= ctx.tol["method_agreement"] and purity <= ctx.tol["purity"]
    return {"passed": bool(passed), "data": data}


def _task_compatibility(ctx: RunContext) -> dict:
    structure = ctx.nested.form.c20 if ctx.metric.dim > 1 else None
    res = compatibility_field(ctx.connection, structure)
    rel = {key: float(np.max(res[key] / res["scale"])) for key in ("metric", "holo", "structure")}
    passed = all(v <= ctx.tol["compatibility"] for v in rel.values())
    return {
        "passed": bool(passed),
        "data": {f"max_relative_{k}_residual": v for k, v in rel.items()},
    }


def _task_dual(ctx: RunContext) -> dict:
    dual = dual_curvature_field(ctx.kernel, ctx.points, ctx.steps, theta=ctx.analytic)
    residual = float(np.max(dual.residual))
    return {
        "passed": bool(residual <= ctx.tol["dual"]),
        "data": {"max_residual": residual},
    }


def _task_subbundle(ctx: RunContext) -> dict:
    split = subbundle_field(
        ctx.metric, ctx.config.subbundle_frame, ctx.points, ctx.steps, ambient=ctx.analytic
    )
    identity = np.max(split.identity_residual)
    antiholo = np.max(split.beta_antiholo_residual)
    return {
        "passed": bool(identity <= ctx.tol["subbundle"]),
        "data": {
            "max_identity_residual": float(identity),
            "max_beta_antiholo_residual": float(antiholo),
        },
    }


def _griffiths_data(ctx: RunContext, report) -> dict:
    return {
        "verdict": report.verdict,
        "min_margin": float(report.min_margin),
        "witness_point": report.witness_point,
        "witness_direction": report.witness_direction,
        "directions": int(report.directions.shape[0]),
        "max_hermiticity_residual": float(report.max_hermiticity_residual),
        "max_purity_residual": float(report.max_purity_residual),
        "sampled_directions_only": report.sampled_only,
        "fields": _point_columns(ctx.points)
        + [{"name": "min_margin", "values": report.min_margins}],
    }


def _task_griffiths(ctx: RunContext) -> dict:
    report = ctx.griffiths
    return {
        "passed": report.verdict != "indefinite",
        "data": _griffiths_data(ctx, report),
    }


def _task_theorem55(ctx: RunContext) -> dict:
    kernel = ctx.kernel
    rng = Sampler(ctx.config.seed)
    sub = ctx.points
    if sub.shape[0] > 25:
        idx = rng.choice(sub.shape[0], size=25)
        idx.sort()
        sub = sub[idx]
    cr_worst, step = 0.0, ctx.steps.first_steps()
    for _ in range(3):
        w0 = ctx.points[int(rng.integers(0, ctx.points.shape[0]))]
        xi = rng.standard_normal(kernel.fiber_dim) + 1j * rng.standard_normal(kernel.fiber_dim)
        xi /= np.linalg.norm(xi)
        cr = delbar_norms(
            lambda w: kernel.eval_batch(w, w0) @ xi, sub, step, richardson=True, domain=kernel
        )
        cr_worst = max(cr_worst, float(cr.max()))
    adm_margin = float(np.min(ctx.admissibility.relative_margin))
    premise_ok = (
        kernel.holomorphic
        and cr_worst <= ctx.tol["holomorphy"]
        and adm_margin >= ctx.tol["admissibility"]
    )
    premise = {
        "holomorphic": bool(kernel.holomorphic),
        "cauchy_riemann_residual": float(cr_worst),
        "min_admissibility_margin": float(adm_margin),
        "satisfied": bool(premise_ok),
    }
    if not premise_ok:
        return {
            "passed": False,
            "status": "hypothesis_not_met",
            "data": {"premise": premise, "conclusion": None},
        }
    report = ctx.griffiths
    return {
        "passed": report.verdict != "indefinite",
        "status": "verified" if report.verdict != "indefinite" else "conclusion_failed",
        "data": {"premise": premise, "conclusion": _griffiths_data(ctx, report)},
    }


_TASKS = {
    "selftest": _task_selftest,
    "psd": _task_psd,
    "admissibility": _task_admissibility,
    "connection": _task_connection,
    "curvature": _task_curvature,
    "compatibility": _task_compatibility,
    "dual": _task_dual,
    "subbundle": _task_subbundle,
    "griffiths": _task_griffiths,
    "theorem55": _task_theorem55,
}

TASK_ORDER = tuple(_TASKS)

_GRIDLESS_TASKS = {"selftest", "psd"}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


@dataclass
class AnalysisReport:
    data: dict

    @property
    def exit_code(self) -> int:
        return self.data["exit_code"]

    def to_json(self) -> str:
        return json.dumps(_jsonify(self.data), sort_keys=True, indent=2)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf":  # real: one finiteness check, then plain lists
            if obj.dtype.kind == "f" and not np.isfinite(obj).all():
                raise StructuralError("report contains a non-finite numeric entry")
            return obj.tolist()
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        if not np.isfinite(value):
            raise StructuralError("report contains a non-finite numeric entry")
        return value
    if isinstance(obj, (np.complexfloating, complex)):
        if not (np.isfinite(obj.real) and np.isfinite(obj.imag)):
            raise StructuralError("report contains a non-finite numeric entry")
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def _error_kind(exc: Exception) -> str:
    if isinstance(exc, DomainError):
        return "domain"
    if isinstance(exc, (StructuralError, SingularMetricError)):
        return "structural"
    return "internal"


def run_analyze(config: AnalysisConfig) -> AnalysisReport:
    """Execute the requested tasks and assemble the report.

    Tasks run in dependency order; a failure in one is recorded and does
    not abort the others.  The exit code is 0 only if every requested
    task passed, with domain errors mapped to 3 and structural and
    internal ones (any exception that is not a BckError) to 4.
    """
    needs_grid = any(t not in _GRIDLESS_TASKS for t in config.tasks)
    ctx, margin = _run_context(config, require_points=needs_grid)
    tasks = {}
    for name in config.tasks:
        start = time.perf_counter()
        entry = {
            "passed": False,
            "status": "ok",
            "error": None,
            "error_kind": None,
            "data": {},
        }
        try:
            result = _TASKS[name](ctx)
            entry.update(result)
            entry.setdefault("status", "ok")
        except Exception as exc:
            kind = _error_kind(exc)
            entry["error"] = f"{type(exc).__name__}: {exc}" if kind == "internal" else str(exc)
            entry["error_kind"] = kind
            entry["status"] = "error"
        entry["timing"] = {"wall_s": time.perf_counter() - start}
        tasks[name] = entry

    passed = all(t["passed"] for t in tasks.values())
    if any(t["error_kind"] in ("structural", "internal") for t in tasks.values()):
        exit_code = 4
    elif any(t["error_kind"] == "domain" for t in tasks.values()):
        exit_code = 3
    else:
        exit_code = 0 if passed else 1
    report = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "config": config.echo,
        "seed": config.seed,
        "grid": {
            "points_total": int(ctx.points_total),
            "points_used": int(ctx.points.shape[0]),
            "stencil_margin": margin,
            "order": "row-major over re/im of each axis in declaration order",
        },
        "tasks": tasks,
        "passed": passed,
        "exit_code": exit_code,
    }
    return AnalysisReport(report)


def _run_context(config: AnalysisConfig, require_points: bool) -> tuple[RunContext, float]:
    """The run context over the grid points that clear the stencil margin
    `FdSteps.margin`, and that margin."""
    margin = config.steps.margin
    points = config.grid.interior_points(config.kernel, margin=margin)
    if require_points and points.shape[0] == 0:
        raise DomainError(
            "no grid point lies inside the kernel domain with the stencil margin "
            f"{margin:.3e}"
        )
    total = config.grid.points().shape[0]
    return RunContext(config=config, points=points, points_total=total), margin


def run_selftest(seed: int = 0) -> dict:
    """The invariant corpus as a report section."""
    entries = run_selfcheck(seed=seed)
    return {
        "passed": all(e["passed"] for e in entries),
        "data": {"checks": entries},
    }


# ---------------------------------------------------------------------------
# output and entry point
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bck-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv_fields(report: AnalysisReport, csv_dir: str) -> None:
    for name, task in report.data["tasks"].items():
        fields = task.get("data", {}).get("fields")
        if not fields:
            continue
        lines = [",".join(col["name"] for col in fields)]
        rows = len(fields[0]["values"])
        for i in range(rows):
            lines.append(",".join(repr(float(col["values"][i])) for col in fields))
        _atomic_write(os.path.join(csv_dir, f"{name}.csv"), "\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bck",
        description="Kernel-induced metrics, curvature and positivity on complex charts.",
    )
    sub = parser.add_subparsers(dest="command")
    analyze = sub.add_parser("analyze", help="run a configured analysis")
    analyze.add_argument("--config", required=True, help="path to the JSON config")
    analyze.add_argument("--out", default=None, help="report path (overrides config)")
    analyze.add_argument("--csv", default=None, help="directory for CSV field tables")
    selftest = sub.add_parser("selftest", help="run the built-in invariant suite")
    selftest.add_argument("--seed", type=int, default=0)
    sub.add_parser("version", help="print the package version")

    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "selftest":
        section = run_selftest(seed=args.seed)
        for check in section["data"]["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            print(
                f"{status}  {check['name']}: residual {check['residual']:.3e} "
                f"(tolerance {check['tolerance']:.1e})"
            )
        return 0 if section["passed"] else 1
    if args.command != "analyze":
        parser.print_help()
        return 2

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        config = AnalysisConfig.from_dict(raw)
        report = run_analyze(config)
        # serialising checks every number: a non-finite one is structural
        text = report.to_json() + "\n"
        out_path = args.out or config.output_report
        if out_path:
            _atomic_write(out_path, text)
        else:
            print(text, end="")
        csv_dir = args.csv or config.output_csv_dir
        if csv_dir:
            _write_csv_fields(report, csv_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except (StructuralError, SingularMetricError) as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a bug or a user hook's own exception
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())

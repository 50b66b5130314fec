"""Configuration-driven analysis runs and the command-line entry point.

A single JSON document selects a kernel, a sampling grid, finite
difference steps, tolerances and a set of tasks; the run emits a JSON
report (atomically: write to a temporary file, then rename) and,
optionally, CSV field tables for external plotting.  Identical config
and seed produce byte-identical reports except for the wall-clock
entries.

Exit codes: 0 all requested verdict tasks passed, 1 a task's gate failed,
2 configuration error, 3 domain violation, 4 numeric structural error or
an internal error (any other exception).
"""

from __future__ import annotations

import argparse
import gc
import json
import operator
import os
import sys
import tempfile
import time
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
    MetricJet,
    _max_norm,
    analytic_curvature_field,
    chern_connection_field,
    compatibility_field,
    dual_curvature_field,
    metric_from_kernel,
    metric_jet,
    nested_curvature_field,
    subbundle_field,
)
from .errors import BckError, DomainError, SingularMetricError, StructuralError
from .forms import Record, clear_of_boundary, delbar_norms, inside_domain
from .grids import ChartGrid
from .kernels import (
    AdmissibilityField,
    ConstantKernel,
    DiscPowerKernel,
    KernelSpec,
    SectionKernel,
    admissibility_field,
    psd_margin,
    universal_grassmann,
)
from .linalg import Sampler, complex_normal
from .polys import MatrixPolynomial
from .positivity import GriffithsReport, griffiths_verdict

__all__ = [
    "ConfigError",
    "AnalysisConfig",
    "AnalysisReport",
    "run_analyze",
    "run_selftest",
    "main",
]

REPORT_SCHEMA = "bck-report/1"

class ConfigError(BckError):
    """The configuration document is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# config parsing: one schema table per section and per kernel variant
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _fail(path: str, wanted: str, value) -> ConfigError:
    return ConfigError(f"{path or 'the config'} must be {wanted}, not {value!r}")


def _read(obj, table: dict, path: str) -> dict:
    """A JSON object read through its schema table, which maps each key to
    (reader, default).  An unknown key and a missing required key are
    config errors.  Each given value, and each default but None, is read
    as reader(value, dotted path)."""
    join = f"{path}.{{}}".format if path else str
    obj, out = _OBJECT(obj, path), {}
    for key in obj:
        if key not in table:
            raise ConfigError(f"{join(key)} is not a config key")
    for key, (reader, default) in table.items():
        if key in obj:
            out[key] = reader(obj[key], join(key))
        elif default is _REQUIRED:
            raise ConfigError(f"{join(key)} is required")
        else:
            out[key] = None if default is None else reader(default, join(key))
    return out


def _check(wanted: str, ok, convert=lambda value: value):
    """Reader that converts each value `ok` accepts and rejects the others."""

    def read(value, path: str):
        if not ok(value):
            raise _fail(path, wanted, value)
        return convert(value)

    return read


def _is_number(value) -> bool:
    """A finite float, or an integer in its range; a boolean is not a number."""
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return finite and not isinstance(value, bool)


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))


def _integer(least: int):
    """Reader of an integer >= `least`; an integral float such as 4.0 reads as 4."""
    return _check(f"an integer >= {least}",
                  lambda v: (type(v) is int or isinstance(v, float) and v.is_integer()) and v >= least, int)


def _list_of(reader, least: int = 1):
    """Reader of a list of at least `least` items, each read by `reader`."""
    wanted = "a nonempty list" if least else "a list"
    whole = _check(wanted, lambda v: isinstance(v, list) and len(v) >= least)
    return lambda value, path: [reader(x, f"{path}[{i}]") for i, x in enumerate(whole(value, path))]


def _rows_of(reader):
    """Reader of a nonempty list of nonempty rows of one length, each entry read by `reader`."""
    even = _check("a nonempty list of rows of one length", lambda v: isinstance(v, list) and v and all(
        isinstance(row, list) and len(row) == len(v[0]) for row in v))
    rows = _list_of(_list_of(reader))
    return lambda value, path: rows(even(value, path), path)


def _section(table: dict):
    return lambda value, path: _read(value, table, path)


def _powers(value, path: str) -> tuple[int, ...]:
    """The powers of z_1..z_d: a list, or one integer on a 1-d chart."""
    return tuple(_list_of(_NATURAL)(value if isinstance(value, list) else [value], path))


_FINITE = _check("a finite number", _is_number, float)
_NONNEGATIVE = _check("a finite number >= 0", lambda v: _is_number(v) and v >= 0, float)
_POSITIVE = _check("a positive finite number", lambda v: _is_number(v) and v > 0, float)
_NATURAL = _integer(0)
_BOOLEAN = _check("true or false", lambda v: isinstance(v, bool))
_OBJECT = _check("an object", lambda v: isinstance(v, dict))
_INTERVAL = _check("a pair [lo, hi] of finite numbers, lo <= hi",
                   lambda v: _is_pair(v) and v[0] <= v[1], lambda v: tuple(map(float, v)))
_COMPLEX = _check("a finite number or a pair [re, im] of them", lambda v: _is_number(v) or _is_pair(v),
                  lambda v: complex(*map(float, v if isinstance(v, list) else (v, 0.0))))
_MONOMIAL = {"c": (_COMPLEX, _REQUIRED), "p": (_powers, None)}


def _polynomials(value, path: str) -> Callable[[int], MatrixPolynomial]:
    """A matrix of polynomials, each a list of monomials c z^p, read at once.  The result
    builds it on a d-dimensional chart, where a monomial gives d powers or none."""
    rows = _rows_of(_list_of(_section(_MONOMIAL), least=0))(value, path)
    shape = len(rows), len(rows[0])

    def build(dim: int) -> MatrixPolynomial:
        terms = {}
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                for k, mono in enumerate(entry):
                    powers = (0,) * dim if mono["p"] is None else mono["p"]
                    if len(powers) != dim:
                        raise _fail(f"{path}[{i}][{j}][{k}].p", "one power per chart axis", list(powers))
                    coeffs = terms.setdefault((powers, (0,) * dim), np.zeros(shape, dtype=complex))
                    coeffs[i, j] += mono["c"]
        return MatrixPolynomial(dim, terms, shape=shape)

    return build


def _section_kernel(entries, monomials, gram, base_dim) -> SectionKernel:
    """from_sections; `monomials` = m is the shorthand for the sections 1, z, ..., z^(m-1)."""
    if (entries is None) == (monomials is None):
        raise ConfigError("kernel must give one of entries and monomials, not both or neither")
    if monomials is not None:
        if base_dim != 1:
            raise _fail("kernel.base_dim", "1 with the monomials shorthand", base_dim)
        entries = _polynomials([[[{"c": 1, "p": [k]}] for k in range(monomials)]], "kernel.monomials")
    return SectionKernel(entries(base_dim), base_dim=base_dim, gram=gram)


def _user_hook(target: str, params: dict) -> KernelSpec:
    """The KernelSpec of the factory `module:function`, called with `params`."""
    module, name = target.split(":", 1)
    try:
        factory = getattr(import_module(module), name)
    except (ImportError, AttributeError) as exc:
        raise ConfigError(f"kernel.target must name an importable user hook, not {target!r}: {exc}") from exc
    try:
        spec = factory(**params)
    except (TypeError, ValueError) as exc:  # the factory rejects its params
        raise ConfigError(f"kernel.params must suit the user hook, not {params!r}: {exc}") from exc
    if not isinstance(spec, KernelSpec):
        raise _fail("kernel.target", "a user hook that returns a KernelSpec", target)
    return spec


_VARIANT = (lambda value, path: value, _REQUIRED)  # checked by build_kernel's lookup
_MATRIX = _rows_of(_COMPLEX)
_BASE_DIM = (_integer(1), 1)
# variant -> (constructor, table); the constructor takes the table's keys
_KERNELS = {
    "disc_power": (DiscPowerKernel, {"variant": _VARIANT, "nu": (_FINITE, _REQUIRED)}),
    "constant": (ConstantKernel, {
        "variant": _VARIANT, "matrix": (_MATRIX, _REQUIRED), "base_dim": _BASE_DIM,
    }),
    "from_sections": (_section_kernel, {
        "variant": _VARIANT, "entries": (_polynomials, None), "monomials": (_integer(1), None),
        "gram": (_MATRIX, None), "base_dim": _BASE_DIM,
    }),
    "universal_grassmann": (universal_grassmann, {
        "variant": _VARIANT, "ambient_dim": (_integer(1), _REQUIRED), "rank": (_integer(1), _REQUIRED),
    }),
    "user_hook": (_user_hook, {
        "variant": _VARIANT,
        "target": (_check("'module:function'", lambda v: isinstance(v, str) and ":" in v), _REQUIRED),
        "params": (_OBJECT, {}),  # handed to the factory unread
    }),
}


def build_kernel(cfg, path: str = "kernel") -> KernelSpec:
    """The kernel of a config section: its variant's constructor called with the variant's table."""
    variant = cfg.get("variant") if isinstance(cfg, dict) else None
    if not isinstance(variant, str) or variant not in _KERNELS:
        raise _fail(f"{path}.variant", "one of " + ", ".join(_KERNELS), variant)
    build, table = _KERNELS[variant]
    args = _read(cfg, table, path)
    del args["variant"]
    try:
        return build(**args)
    except ValueError as exc:  # the constructor rejects the values together
        raise ConfigError(f"{path} must be a valid {variant} kernel: {exc}") from exc


_AXIS = {
    "re": (_INTERVAL, _REQUIRED), "im": (_INTERVAL, _REQUIRED),
    "re_res": (_integer(2), _REQUIRED), "im_res": (_integer(2), _REQUIRED), "scale": (_POSITIVE, 1.0),
}
_GRID = {"axes": (_list_of(_section(_AXIS)), _REQUIRED)}


def _grid(value, path: str) -> tuple[ChartGrid, tuple[float, ...]]:
    """The grid and its per-axis chart scale."""
    axes = _read(value, _GRID, path)["axes"]
    re_res, im_res, scale = (tuple(axis[key] for axis in axes) for key in ("re_res", "im_res", "scale"))
    (re_lo, re_hi), (im_lo, im_hi) = (zip(*(axis[key] for axis in axes)) for key in ("re", "im"))
    return ChartGrid(re_lo, re_hi, im_lo, im_hi, re_res, im_res), scale


_FD_STEPS = {"first": (_POSITIVE, FdSteps.first), "second": (_POSITIVE, FdSteps.second),
             "richardson": (_BOOLEAN, FdSteps.richardson)}


def _fd_steps(value, path: str) -> dict:
    """The fd_steps section, with the one rule across keys: second >= first."""
    steps = _read(value, _FD_STEPS, path)
    if steps["second"] < steps["first"]:
        raise _fail(f"{path}.second", f">= {path}.first, {steps['first']!r}", steps["second"])
    return steps


_TOLERANCES = {key: (_NONNEGATIVE, default) for key, default in dict(
    psd=1e-8, admissibility=1e-10, compatibility=1e-5, purity=1e-5, method_agreement=5e-5,
    dual=1e-5, subbundle=1e-4, holomorphy=1e-6, pos=1e-6, neg=1e-6,
).items()}
_DIRECTIONS = {"count": (_NATURAL, 64), "seed": (_NATURAL, 0)}
_SAMPLES = {"psd_points": (_integer(1), 50)}
_SUBBUNDLE = {"frame": (_polynomials, _REQUIRED)}
_RETIRED_TASKS = {"compatibility": ("connection", "curvature")}  # read as the tasks whose gates cover it
_CONFIG = {
    "kernel": (build_kernel, _REQUIRED), "grid": (_grid, _REQUIRED),
    "fd_steps": (_fd_steps, {}),
    "tolerances": (_section(_TOLERANCES), {}),
    "tasks": (_list_of(_check("a task name", lambda v: v in (*TASK_ORDER, *_RETIRED_TASKS),
                              lambda v: _RETIRED_TASKS.get(v, (v,)))), _REQUIRED),
    "directions": (_section(_DIRECTIONS), {}),
    "samples": (_section(_SAMPLES), {}), "subbundle": (_section(_SUBBUNDLE), None),
}


class AnalysisConfig(Record):
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
    echo: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "AnalysisConfig":
        cfg = _read(raw, _CONFIG, "")
        kernel, (grid, scale) = cfg["kernel"], cfg["grid"]
        if grid.dim != kernel.base_dim:
            raise _fail("grid.axes", f"{kernel.base_dim} axes, one per kernel chart axis", grid.dim)
        frame = cfg["subbundle"] and cfg["subbundle"]["frame"](kernel.base_dim)
        if frame is not None and (frame.shape[0] != kernel.fiber_dim or frame.shape[1] > frame.shape[0]):
            wanted = f"of shape (n, k) with n = {kernel.fiber_dim}, the fiber dimension, and k <= n"
            raise _fail("subbundle.frame", wanted, frame.shape)
        tasks = tuple(t for t in TASK_ORDER if any(t in names for names in cfg["tasks"]))
        if "subbundle" in tasks and frame is None:
            raise ConfigError("subbundle.frame is required by the subbundle task")
        return cls(
            kernel=kernel, grid=grid, steps=FdSteps(**cfg["fd_steps"], scale=scale),
            tolerances=cfg["tolerances"], tasks=tasks, seed=cfg["directions"]["seed"],
            direction_count=cfg["directions"]["count"], psd_points=cfg["samples"]["psd_points"],
            subbundle_frame=frame, echo=raw,
        )


# ---------------------------------------------------------------------------
# the run context and tasks
# ---------------------------------------------------------------------------


class RunContext(Record):
    """One run's config and grid, plus the fields its tasks share.

    The admissibility margins, the metric, its second-order jet, the
    connection field, both curvature fields and the Griffiths report are
    each computed once, on first use, over all grid points; the connection
    and the analytic curvature are reductions of the jet, and the tasks are
    reductions over them all.
    """

    config: AnalysisConfig
    points: np.ndarray

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
    def jet(self) -> MetricJet:
        return metric_jet(self.metric, self.points, self.steps)

    @cached_property
    def connection(self) -> ConnectionField:
        return chern_connection_field(self.jet)

    @cached_property
    def analytic(self) -> CurvatureField:
        return analytic_curvature_field(self.jet)

    @cached_property
    def nested(self) -> CurvatureField:
        return nested_curvature_field(self.metric, self.points, self.steps)

    @cached_property
    def griffiths(self) -> GriffithsReport:
        return griffiths_verdict(self.metric, self.analytic, self.points, directions=self.config.direction_count,
                                 seed=self.config.seed, pos_tol=self.tol["pos"], neg_tol=self.tol["neg"])


def _point_columns(points: np.ndarray) -> list[dict]:
    return [column for j, z in enumerate(points.T, 1)
            for column in ({"name": f"re_z{j}", "values": z.real}, {"name": f"im_z{j}", "values": z.imag})]


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
    data = {"margin": psd_margin(ctx.kernel, pts), "sample_points": len(pts)}
    return {"data": data, "gates": _decide(ctx, "psd", data)}


# Every decision of a task that compares a number with a tolerance, by
# task: (the number's key in the task's data, or in theorem55's premise,
# the tolerance's key, sense).  `_decide` reads them all.
_GATES = {
    "psd": (("margin", "psd", ">= -t"),),
    "admissibility": (("min_relative_margin", "admissibility", ">= t"),),
    "connection": (("max_relative_metric_residual", "compatibility", "<= t"),),
    "curvature": (("max_method_disagreement", "method_agreement", "<= t"),
                  ("max_relative_purity_residual", "purity", "<= t")),
    "dual": (("max_residual", "dual", "<= t"),),
    "subbundle": (("max_identity_residual", "subbundle", "<= t"),),
    "griffiths": (("min_margin", "neg", ">= -t"),),
    "theorem55": (("cauchy_riemann_residual", "holomorphy", "<= t"),
                  ("min_admissibility_margin", "admissibility", ">= t")),
}
_SENSES = {"<= t": operator.le, ">= t": operator.ge, ">= -t": lambda value, t: value >= -t}


def _decide(ctx: RunContext, task: str, data: dict, conditions: dict = {}, prefix: str = "") -> dict:
    """The gate records of a task's `data`, each under `prefix` and its key:
    every row of `_GATES[task]` compares its number with the run's
    tolerance, so that a NaN fails it, and every (key, holds) of
    `conditions` is a gate with no tolerance.  A task passes when all of
    its gates do."""
    gates = {prefix + key: {"tolerance": None, "passed": bool(holds)} for key, holds in conditions.items()}
    for key, name, sense in _GATES[task]:
        gates[prefix + key] = {"tolerance": name, "passed": bool(_SENSES[sense](data[key], ctx.tol[name]))}
    return gates


def _extremes(points: np.ndarray, **values) -> dict:
    """Each per-point array of `values` reduced under its own key, to its
    minimum for a `min_` key and to its maximum otherwise, and the first
    of `points` that holds it under `witness_points`.  `argmax` and
    `argmin` take the first NaN, so a NaN is reported, with its point, and
    fails every gate on it."""
    rows = {key: int((np.argmin if key.startswith("min_") else np.argmax)(v)) for key, v in values.items()}
    return {**{key: float(values[key][i]) for key, i in rows.items()},
            "witness_points": {key: points[i] for key, i in rows.items()}}


def _task_admissibility(ctx: RunContext) -> dict:
    """Passes when every diagonal block is invertible and the least margin,
    at `worst_point`, is at least the tolerance."""
    data = _extremes(ctx.points, min_relative_margin=ctx.admissibility.relative_margin)
    data.update(worst_point=data.pop("witness_points")["min_relative_margin"], points=int(ctx.points.shape[0]))
    invertible = {"invertible": ctx.admissibility.invertible.all()}
    return {"data": data, "gates": _decide(ctx, "admissibility", data, invertible)}


def _task_connection(ctx: RunContext) -> dict:
    conn = ctx.connection
    res = compatibility_field(conn)
    fields = {"max_relative_metric_residual": res["metric"] / res["scale"]}
    if isinstance(ctx.kernel, DiscPowerKernel):  # a = nu conj(z) / (1 - |z|^2) dz
        z = ctx.points[:, 0]
        ref = ctx.kernel.nu * np.conj(z) / (1.0 - np.abs(z) ** 2)
        fields["closed_form_max_abs_err"] = np.abs(conn.form.p[0, :, 0, 0] - ref)
    data = _extremes(ctx.points, **fields)
    data["fields"] = _point_columns(ctx.points) + _matrix_field_columns("a", conn.form.p)
    return {"data": data, "gates": _decide(ctx, "connection", data)}


def _task_curvature(ctx: RunContext) -> dict:
    analytic, nested = ctx.analytic.form.r11, ctx.nested
    scale = np.maximum(1.0, _max_norm(analytic))
    fields = {
        "max_method_disagreement": _max_norm(analytic - nested.form.r11) / scale,
        "max_relative_purity_residual": nested.purity_residual / scale,
        "max_pairing_residual": ctx.analytic.pairing_residual,
    }
    if isinstance(ctx.kernel, DiscPowerKernel):  # r11 = nu / (1 - |z|^2)^2
        ref = ctx.kernel.nu / (1.0 - np.abs(ctx.points[:, 0]) ** 2) ** 2
        fields["closed_form_max_rel_err"] = np.abs(analytic[0, 0, :, 0, 0] - ref) / np.abs(ref)
    data = _extremes(ctx.points, **fields)
    data["fields"] = _point_columns(ctx.points) + _matrix_field_columns("r11", analytic)
    return {"data": data, "gates": _decide(ctx, "curvature", data)}


def _task_dual(ctx: RunContext) -> dict:
    dual = dual_curvature_field(ctx.analytic)
    data = _extremes(ctx.points, max_residual=dual.residual)
    return {"data": data, "gates": _decide(ctx, "dual", data)}


def _task_subbundle(ctx: RunContext) -> dict:
    split = subbundle_field(ctx.jet, ctx.config.subbundle_frame)
    data = _extremes(ctx.points, max_identity_residual=split.identity_residual,
                     max_beta_antiholo_residual=split.beta_antiholo_residual)
    return {"data": data, "gates": _decide(ctx, "subbundle", data)}


def _griffiths_summary(report: GriffithsReport) -> dict:
    """The verdict, margin and witness that the `griffiths` task reports
    and `theorem55` cites as its conclusion."""
    return {"verdict": report.verdict, "min_margin": report.min_margin,
            "witness_point": report.witness_point, "witness_direction": report.witness_direction}


def _task_griffiths(ctx: RunContext) -> dict:
    report = ctx.griffiths
    data = {
        **_griffiths_summary(report),
        **_extremes(ctx.points, max_hermiticity_residual=report.hermiticity_residuals),
        "directions": int(report.directions.shape[0]),
        "sampled_directions_only": report.sampled_only,
        "fields": _point_columns(ctx.points) + [{"name": "min_margin", "values": report.min_margins}],
    }
    return {"data": data, "gates": _decide(ctx, "griffiths", data)}


def _task_theorem55(ctx: RunContext) -> dict:
    """The premise: a holomorphic kernel, a Cauchy-Riemann residual within
    the tolerance at every point of a 25-point sub-sample, each point's
    residual the largest over three seeded sections, and the
    `admissibility` task's decision, whose margin and witness it cites."""
    kernel = ctx.kernel
    rng = Sampler(ctx.config.seed)
    sub = ctx.points if len(ctx.points) <= 25 else ctx.points[np.sort(rng.choice(len(ctx.points), size=25))]
    step, cr = ctx.steps.first_steps(), []
    for _ in range(3):
        w0 = ctx.points[int(rng.integers(0, ctx.points.shape[0]))]
        xi = complex_normal(rng, kernel.fiber_dim)
        xi /= np.linalg.norm(xi)
        cr.append(
            delbar_norms(lambda w: kernel.eval_batch(w, w0) @ xi, sub, step, richardson=True, domain=kernel)
        )
    admissibility = _task_admissibility(ctx)
    premise = {
        "holomorphic": bool(kernel.holomorphic),
        **_extremes(sub, cauchy_riemann_residual=np.maximum.reduce(cr)),
        "min_admissibility_margin": admissibility["data"]["min_relative_margin"],
    }
    premise["witness_points"]["min_admissibility_margin"] = admissibility["data"]["worst_point"]
    data = {"premise": premise, "conclusion": None}
    conditions = {"holomorphic": kernel.holomorphic, "invertible": admissibility["gates"]["invertible"]["passed"]}
    gates = _decide(ctx, "theorem55", premise, conditions, prefix="premise.")
    premise["satisfied"] = all(gate["passed"] for gate in gates.values())
    if not premise["satisfied"]:
        return {"status": "hypothesis_not_met", "data": data, "gates": gates}
    data["conclusion"] = _griffiths_summary(ctx.griffiths)
    gates.update(_decide(ctx, "griffiths", data["conclusion"], prefix="conclusion."))
    verified = gates["conclusion.min_margin"]["passed"]
    return {"status": "verified" if verified else "conclusion_failed", "data": data, "gates": gates}


_TASKS = {
    "selftest": lambda ctx: run_selftest(seed=ctx.config.seed),
    "psd": _task_psd,
    "admissibility": _task_admissibility,
    "connection": _task_connection,
    "curvature": _task_curvature,
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


class AnalysisReport(Record):
    data: dict

    @property
    def exit_code(self) -> int:
        return self.data["exit_code"]

    def to_json(self) -> str:
        """The report text: the stdlib's compact JSON with sorted keys, ASCII
        escapes and floats as their `repr`.  A NaN or infinity is structural."""
        try:
            return json.dumps(self.data, sort_keys=True, allow_nan=False, default=_plain)
        except ValueError as exc:  # allow_nan=False met a NaN or an infinity
            raise StructuralError("report contains a non-finite numeric entry") from exc


def _plain(value):
    """A numpy array or scalar as its `tolist()`, a complex number as {"re", "im"}."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# The one exit-code policy, for a task and for a whole run: (exception
# types, error kind, exit code), the first match winning.  Exit 1 is only
# for a failed verdict.
_ERRORS = (
    ((ConfigError,), "config", 2),
    ((DomainError,), "domain", 3),
    ((StructuralError, SingularMetricError), "structural", 4),
    ((Exception,), "internal", 4),  # a bug or a user hook's own exception
)


def _error(exc: Exception) -> tuple[str, int, str]:
    """The kind, exit code and message of an error; an internal error's
    message starts with the exception's type."""
    kind, code = next((kind, code) for types, kind, code in _ERRORS if isinstance(exc, types))
    return kind, code, f"{type(exc).__name__}: {exc}" if kind == "internal" else str(exc)


def run_analyze(config: AnalysisConfig) -> AnalysisReport:
    """Execute the requested tasks and assemble the report.

    Tasks run in dependency order; a failure in one is recorded and does
    not abort the others.  The exit code is 0 only if every requested
    task passed, 1 if a verdict failed, and otherwise the largest code
    `_ERRORS` gives a task's error.
    """
    needs_grid = any(t not in _GRIDLESS_TASKS for t in config.tasks)
    ctx, grid = _run_context(config, require_points=needs_grid)
    tasks, exit_code = {}, 0
    for name in config.tasks:
        start = time.perf_counter()
        entry = {"passed": False, "status": "ok", "error": None, "error_kind": None, "data": {}, "gates": {}}
        try:
            entry.update(_TASKS[name](ctx))
            entry["passed"] = all(gate["passed"] for gate in entry["gates"].values())
        except Exception as exc:
            entry["error_kind"], code, entry["error"] = _error(exc)
            entry["status"] = "error"
            exit_code = max(exit_code, code)
        entry["timing"] = {"wall_s": time.perf_counter() - start}
        tasks[name] = entry

    passed = all(t["passed"] for t in tasks.values())
    exit_code = max(exit_code, int(not passed))
    report = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "config": config.echo,
        "seed": config.seed,
        "tolerances": config.tolerances,
        "grid": grid,
        "tasks": tasks,
        "passed": passed,
        "exit_code": exit_code,
    }
    return AnalysisReport(report)


def _run_context(config: AnalysisConfig, require_points: bool) -> tuple[RunContext, dict]:
    """The run context over the grid points that clear the stencil margin
    `FdSteps.margin`, and the report's count of the points it drops, by reason."""
    margin, points = config.steps.margin, config.grid.points()
    used = clear_of_boundary(config.kernel, points, margin)
    kept, outside = (int(np.count_nonzero(rows)) for rows in (used, ~inside_domain(config.kernel, points)))
    near = len(points) - outside - kept
    if require_points and not kept:
        raise DomainError(
            f"no grid point lies inside the kernel domain with the stencil margin {margin:.3e}: "
            f"of {len(points)} points, {outside} lie outside the domain and {near} within the margin"
        )
    return RunContext(config=config, points=points[used]), {
        "points_total": len(points),
        "points_used": kept,
        "points_outside_domain": outside,
        "points_within_stencil_margin": near,
        "stencil_margin": margin,
        "order": "row-major over re/im of each axis in declaration order",
    }


def run_selftest(seed: int = 0) -> dict:
    """The invariant corpus as a report section."""
    # imported here, so that only a run that asks for the corpus compiles it
    from .selfcheck import run_selfcheck

    entries = run_selfcheck(seed=seed)
    return {
        "passed": all(e["passed"] for e in entries),
        "data": {"checks": entries},
        # each check's own decision, against the tolerance it reports beside its residual
        "gates": {f"checks[{e['name']}].residual": {"tolerance": f"checks[{e['name']}].tolerance",
                                                    "passed": e["passed"]} for e in entries},
    }


# ---------------------------------------------------------------------------
# output and entry point
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    """Write the text and a newline to a temporary file beside `path`, then
    rename it over `path`; on any failure the temporary file is removed."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bck-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv_fields(data: dict, csv_dir: str) -> None:
    """A table per task with field columns, from the report's own arrays:
    each number is written as the report writes it."""
    for name, task in data["tasks"].items():
        fields = task.get("data", {}).get("fields")
        if not fields:
            continue
        rows = zip(*(map(float.__repr__, col["values"].tolist()) for col in fields))
        lines = [",".join(col["name"] for col in fields), *map(",".join, rows)]
        _atomic_write(os.path.join(csv_dir, f"{name}.csv"), "\n".join(lines))


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        if argv is None:
            # Run as the program, with every output written: move the heap to
            # the permanent generation, so that the collections of interpreter
            # shutdown skip numpy's and bck's import graph rather than free it
            # object by object.  atexit handlers and finalizers still run.
            gc.freeze()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="bck",
        description="Kernel-induced metrics, curvature and positivity on complex charts.",
    )
    sub = parser.add_subparsers(dest="command")
    analyze = sub.add_parser("analyze", help="run a configured analysis")
    analyze.add_argument("--config", required=True, help="path to the JSON config")
    analyze.add_argument("--out", default=None, help="report path")
    analyze.add_argument("--csv", default=None, help="directory for CSV field tables")
    selftest = sub.add_parser("selftest", help="run the built-in invariant suite")
    selftest.add_argument("--seed", type=int, default=0)
    sub.add_parser("version", help="print the package version")

    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "selftest":
        if args.seed < 0:  # a usage error: exit 1 would read as a failed check
            print(f"usage error: --seed must be an integer >= 0, not {args.seed}", file=sys.stderr)
            return 2
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
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            raise ConfigError(exc) from exc
        config = AnalysisConfig.from_dict(raw)
        report = run_analyze(config)
        if args.out:
            _atomic_write(args.out, report.to_json())
        else:
            print(report.to_json())
        if args.csv:
            _write_csv_fields(report.data, args.csv)
    except Exception as exc:
        kind, code, message = _error(exc)
        print(f"{kind} error: {message}", file=sys.stderr)
        return code
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())

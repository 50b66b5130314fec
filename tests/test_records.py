"""The field protocol of bck's result classes, `bck.forms.Record`.

Every result class declares its fields once, as annotations, and shares one
constructor, repr, equality and hashing; the frozen ones refuse assignment.
The reference for repr, equality and hashing is the stdlib `dataclass` of
the same fields and frozenness.
"""

import dataclasses

import numpy as np
import pytest

import bck.chern
import bck.cli
import bck.forms
import bck.grids
import bck.kernels
import bck.positivity
from bck.chern import FdSteps, MetricField, dual_curvature_field, metric_from_kernel, subbundle_field
from bck.cli import AnalysisConfig, run_analyze
from bck.forms import Form1, Form2, Record, replace
from bck.grids import ChartGrid
from bck.kernels import DiscPowerKernel, gram, lemma51_consistency
from bck.positivity import triple_split

FROZEN = {
    "Form1", "Form2", "FdSteps", "MetricJet", "ConnectionField", "CurvatureField", "SubbundleField",
    "DualCurvatureField", "AdmissibilityField", "Lemma51Report", "ChartGrid", "SesquiTriple",
}
MUTABLE = {"MetricField", "GramMatrix", "GriffithsReport", "AnalysisConfig", "RunContext", "AnalysisReport"}


def _records() -> dict:
    """One instance of each result class, from a small disc run."""
    config = AnalysisConfig.from_dict({
        "kernel": {"variant": "disc_power", "nu": 2},
        "grid": {"axes": [{"re": [-0.3, 0.3], "im": [-0.3, 0.3], "re_res": 2, "im_res": 2}]},
        "directions": {"count": 3, "seed": 1},
        "tasks": ["curvature"],
    })
    ctx, _ = bck.cli._run_context(config, require_points=True)
    spec, pts = ctx.kernel, ctx.points
    found = [
        ctx.connection.form, ctx.analytic.form, ctx.steps, ctx.metric, ctx.jet, ctx.connection,
        ctx.analytic, subbundle_field(ctx.jet, lambda z: np.ones((len(z), 1, 1), dtype=complex)),
        dual_curvature_field(ctx.analytic), gram(spec, pts), ctx.admissibility,
        lemma51_consistency(spec, pts[0]), config.grid, triple_split(lambda v, w: v[0] * np.conj(w[0]), 1),
        ctx.griffiths, config, ctx, run_analyze(config),
    ]
    return {type(r).__name__: r for r in found}


RECORDS = _records()


def _reference(cls):
    """The dataclass of the same fields, defaults and frozenness."""
    specs = [
        (name, object, dataclasses.field(default=cls._defaults[name])) if name in cls._defaults else (name, object)
        for name in cls._fields
    ]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=cls.__name__ in FROZEN)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type of error is part of the behaviour compared
        return type(exc)


def test_every_result_class_is_a_record():
    assert set(RECORDS) == FROZEN | MUTABLE and len(RECORDS) == 18
    modules = (bck.forms, bck.chern, bck.kernels, bck.grids, bck.positivity, bck.cli)
    records = {
        name for m in modules for name, obj in vars(m).items()
        if isinstance(obj, type) and issubclass(obj, Record) and obj.__module__ == m.__name__ and obj._fields
    }
    assert records == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_construction_by_position_and_by_keyword(name):
    record = RECORDS[name]
    cls, values = type(record), [getattr(record, f) for f in type(record)._fields]
    for built in (cls(*values), cls(**dict(zip(cls._fields, values))), replace(record)):
        assert type(built) is cls
        assert all(getattr(built, f) is v for f, v in zip(cls._fields, values))
    for bad in (
        lambda: cls(*values, None),  # one value too many
        lambda: cls(values[0], **{cls._fields[0]: values[0]}),  # one field twice
        lambda: cls(**dict(zip(cls._fields, values)), not_a_field=1),
    ):
        with pytest.raises(TypeError):
            bad()
    required = [f for f in cls._fields if f not in cls._defaults]
    assert bool(required) == (name != "FdSteps")
    if required:  # a field without a default left out
        with pytest.raises(TypeError, match=required[-1]):
            cls(**{f: v for f, v in zip(cls._fields, values) if f != required[-1]})


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_equality_and_hashing_are_the_dataclass_ones(name):
    record = RECORDS[name]
    cls, values = type(record), [getattr(record, f) for f in type(record)._fields]
    ref = _reference(cls)
    twin, ref_record, ref_twin = cls(*values), ref(*values), ref(*values)
    assert repr(record) == repr(ref_record)
    assert (record == twin, record != twin) == (ref_record == ref_twin, ref_record != ref_twin) == (True, False)
    assert (record == object(), record == ref_record) == (False, False)
    assert _outcome(hash, record) == _outcome(hash, ref_record)
    if name in MUTABLE:
        assert cls.__hash__ is None


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_frozen_records_refuse_assignment(name):
    record = RECORDS[name]
    field = type(record)._fields[0]
    value = getattr(record, field)
    if name in FROZEN:
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
    else:
        setattr(record, field, value)
        assert getattr(record, field) is value


def test_defaults_and_value_semantics():
    steps = FdSteps()
    assert (steps.first, steps.second, steps.richardson, steps.scale) == (1e-5, 1e-4, False, 1.0)
    assert FdSteps(2e-5) == FdSteps(first=2e-5) != steps
    assert hash(FdSteps(richardson=True)) == hash(FdSteps(1e-5, 1e-4, True))
    assert {steps: 1}[FdSteps()] == 1
    assert repr(FdSteps(richardson=True)) == "FdSteps(first=1e-05, second=0.0001, richardson=True, scale=1.0)"
    metric = MetricField(np.sin, 1, 1)
    assert (metric.domain, metric.name, metric.batch_func) == (None, "metric", None)
    # a field of a record built in its __post_init__, and records compared
    # field by field, arrays included, as a dataclass compares them
    form = Form1([[1.0]], [[2.0]])
    assert form.p.dtype == complex and form == replace(form)
    with pytest.raises(ValueError, match="ambiguous"):
        _ = Form1(np.ones(2), np.ones(2)) == Form1(np.ones(2), np.ones(2))


def test_forms_reject_mismatched_shapes_and_replace_validates_again():
    p = np.zeros((1, 2, 2))
    with pytest.raises(ValueError, match="share a shape"):
        Form1(p, np.zeros((1, 3, 3)))
    with pytest.raises(ValueError, match="share a shape"):
        Form2(p[None], p[None], np.zeros((1, 1, 3, 3)))
    with pytest.raises(ValueError, match="share a shape"):
        replace(Form1(p, p), q=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="share a shape"):
        replace(RECORDS["Form2"], c02=np.zeros(3))
    with pytest.raises(ValueError, match="resolution"):
        replace(ChartGrid.square(-0.5, 0.5, 3), re_res=(0,))
    with pytest.raises(ValueError, match="needs func or batch_func"):
        replace(metric_from_kernel(DiscPowerKernel(1)), func=None, batch_func=None)
    changed = replace(FdSteps(), richardson=True)
    assert changed == FdSteps(richardson=True) and FdSteps().richardson is False

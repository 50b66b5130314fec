"""The three pinned `bck analyze` workloads and the checks on their reports.

Each workload is a config generator (seed -> config dict), the seed's
expected verdicts, and the oracle gates its reports must meet.  The seed
sets the direction sample and the PSD sample (through `directions.seed`,
which the config layer also hands to `psd` and `theorem55`), and for
`sections-d2` the coefficients of a fixed monomial support.  The program
sees only the generated config.
"""

from __future__ import annotations

import cmath
import math
import random

ALL_TASKS = [
    "selftest", "psd", "admissibility", "connection", "curvature",
    "compatibility", "dual", "subbundle", "griffiths", "theorem55",
]


def _axis(lo: float, hi: float, res: int) -> dict:
    return {"re": [lo, hi], "im": [lo, hi], "re_res": res, "im_res": res, "scale": 1.0}


def _mono(c: complex, p: list[int]) -> dict:
    return {"c": [c.real, c.imag], "p": p}


def _disc_flagship(seed: int) -> dict:
    return {
        "kernel": {"variant": "disc_power", "nu": 2},
        "grid": {"axes": [_axis(-0.8, 0.8, 21)]},
        "fd_steps": {"first": 1e-5, "second": 1e-4, "richardson": True},
        "directions": {"count": 64, "seed": seed},
        "subbundle": {"frame": [[[{"c": 1, "p": [0]}]]]},
        "tasks": list(ALL_TASKS),
    }


def _grassmann_d2(seed: int) -> dict:
    return {
        "kernel": {"variant": "universal_grassmann", "ambient_dim": 3, "rank": 1},
        "grid": {"axes": [_axis(-0.5, 0.5, 4), _axis(-0.5, 0.5, 4)]},
        "fd_steps": {"first": 1e-5, "second": 1e-4, "richardson": False},
        "directions": {"count": 16, "seed": seed},
        "tasks": ["psd", "admissibility", "connection", "curvature", "compatibility",
                  "dual", "griffiths", "theorem55"],
    }


def section_coefficients(seed: int) -> dict:
    """Seeded coefficients of the fixed 2x3 monomial support of `sections-d2`.

    E(z) = [[1, a z1 + f z2^2, b z2], [0, 1, c z1 + e z1 z2]].  The left
    2x2 block is unit upper triangular, so E(z) has rank 2 and the kernel
    E G^-1 E* is admissible at every point for every seed.  At z = 0 the
    curvature block r11[0, 0] is diag(|a|^2, |c|^2 - |a|^2); with
    |c| < |a| it is indefinite for every seed (a = 1, c = 0 gives
    diag(1, -1)).
    """
    rng = random.Random(f"sections-d2/{seed}")

    def coeff(lo: float, hi: float) -> complex:
        return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))

    return {"a": coeff(0.8, 1.2), "b": coeff(0.5, 1.0), "c": coeff(0.1, 0.4),
            "e": coeff(0.2, 0.6), "f": coeff(0.2, 0.6)}


def _sections_d2(seed: int) -> dict:
    k = section_coefficients(seed)
    one = [_mono(1, [0, 0])]
    zero = [_mono(0, [0, 0])]
    entries = [
        [one, [_mono(k["a"], [1, 0]), _mono(k["f"], [0, 2])], [_mono(k["b"], [0, 1])]],
        [zero, one, [_mono(k["c"], [1, 0]), _mono(k["e"], [1, 1])]],
    ]
    return {
        "kernel": {"variant": "from_sections", "base_dim": 2, "entries": entries},
        "grid": {"axes": [_axis(-0.5, 0.5, 3), _axis(-0.5, 0.5, 3)]},
        "fd_steps": {"first": 1e-5, "second": 1e-4, "richardson": False},
        "directions": {"count": 16, "seed": seed},
        "samples": {"psd_points": 200},
        "tasks": ["psd", "admissibility", "curvature", "dual", "griffiths", "theorem55"],
    }


# Verdicts of the seed code, by task: (passed, status).  They are recorded
# and printed, not gated on: a verdict is a result, and a later fix (for
# example of `dual_curvature_check` on d = 2 charts) is meant to change it.
SEED_VERDICTS = {
    "disc-flagship": {t: (True, "verified" if t == "theorem55" else "ok") for t in ALL_TASKS},
    "grassmann-d2": {
        "psd": (True, "ok"), "admissibility": (True, "ok"), "connection": (True, "ok"),
        "curvature": (True, "ok"), "compatibility": (True, "ok"),
        "dual": (False, "ok"),  # known defect: off-diagonal transpose in the pull-back
        "griffiths": (True, "ok"),
        "theorem55": (False, "hypothesis_not_met"),  # the kernel is not holomorphic
    },
    "sections-d2": {
        "psd": (True, "ok"), "admissibility": (True, "ok"), "curvature": (True, "ok"),
        "dual": (False, "ok"),  # the same pull-back defect as on grassmann-d2
        "griffiths": (False, "ok"),  # genuinely indefinite: r11[0, 0](0) = diag(|a|^2, |c|^2 - |a|^2)
        "theorem55": (False, "conclusion_failed"),
    },
}

WORKLOADS = {
    "disc-flagship": _disc_flagship,
    "grassmann-d2": _grassmann_d2,
    "sections-d2": _sections_d2,
}

# Workloads whose runs also export CSV field tables.
CSV_WORKLOADS = {"disc-flagship"}


def make_config(workload: str, seed: int) -> dict:
    return WORKLOADS[workload](seed)


def setup_config(config: dict) -> dict:
    """The same kernel, grid and steps with one trivial task.

    A run of this config costs interpreter start, `import bck`, config
    validation, grid filtering and one single-point `psd` check: the set-up
    that every analyze run pays before its first real task.
    """
    probe = {k: v for k, v in config.items() if k not in ("tasks", "samples", "subbundle")}
    probe["tasks"] = ["psd"]
    probe["samples"] = {"psd_points": 1}
    return probe


def oracle_failures(workload: str, report: dict) -> list[str]:
    """Acceptance gates on one report; an empty list means the report passes."""
    problems = []
    tasks = report.get("tasks", {})
    for name, entry in tasks.items():
        if entry.get("status") == "error":
            problems.append(f"task {name} errored: {entry.get('error')}")
    curv = tasks.get("curvature", {}).get("data", {})
    if "curvature" in tasks and not curv.get("max_method_disagreement", math.inf) <= 5e-5:
        problems.append(f"curvature routes disagree: {curv.get('max_method_disagreement')}")
    if workload == "disc-flagship":
        conn = tasks.get("connection", {}).get("data", {})
        if not conn.get("closed_form_max_abs_err", math.inf) <= 1e-8:
            problems.append(f"connection closed-form error {conn.get('closed_form_max_abs_err')}")
        if not curv.get("closed_form_max_rel_err", math.inf) <= 1e-5:
            problems.append(f"curvature closed-form error {curv.get('closed_form_max_rel_err')}")
        grif = tasks.get("griffiths", {}).get("data", {})
        if grif.get("verdict") != "positive" or not grif.get("min_margin", -math.inf) >= 3.999:
            problems.append(f"griffiths {grif.get('verdict')} margin {grif.get('min_margin')}")
    return problems


def verdicts(report: dict) -> dict:
    return {name: (bool(e.get("passed")), e.get("status"))
            for name, e in report.get("tasks", {}).items()}

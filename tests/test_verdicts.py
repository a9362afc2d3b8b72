"""Each verdict of ``verdicts.py`` judged on hand-built summaries at its edges.

A window may tighten but never widen: every edge below passes and one step
outside it fails, so a window edited by mistake fails here by name. No
suite runs.
"""

import pytest
from scipy.stats import binomtest
from verdicts import VERDICTS


def _slope(fit_key, slope, **rest):
    return {fit_key: {"slope": slope}, **rest}


def _s05(slope=-0.3, monotone=True):
    return _slope("median_fit", slope, medians_monotone=monotone)


def _s09(slope=-0.5, envelope=20):
    return _slope("mean_fit", slope, min_envelope_ok=envelope)


def _s10(slope=-0.5, holds=True, b_wu=1.0):
    strong = {"holds": holds, "b_wl": 1.0, "b_wu": b_wu}
    return _slope("mean_fit", slope, strong_concentrability=strong)


def _s11(envelope=1.0, cap=1.0):
    return {"envelope_fraction": envelope, "cap_respected_fraction": cap}


def _s02(left=(20, 20), mass=0.0):
    return {"uncovered_mass": mass, "committed_left": list(left)}


def _s06(exceedances=0):
    return {"exceedances": exceedances, "runs": 200, "max_ratio": 0.25}


# verdict number -> (case id, summary, passes)
CASES = {
    2: [
        ("left=18,20", _s02(left=(18, 20)), True),
        ("left=17,20", _s02(left=(17, 20)), False),
        ("mass=1e-8", _s02(mass=1e-8), False),
    ],
    5: [
        ("slope=-0.5", _s05(slope=-0.5), True),
        ("slope=-0.15", _s05(slope=-0.15), True),
        ("slope=-0.5001", _s05(slope=-0.5001), False),
        ("slope=-0.1499", _s05(slope=-0.1499), False),
        ("monotone=False", _s05(monotone=False), False),
    ],
    6: [
        ("exceedances=20", _s06(20), True),
        ("exceedances=21", _s06(21), False),
    ],
    9: [
        ("slope=-0.65", _s09(slope=-0.65, envelope=18), True),
        ("slope=-0.35", _s09(slope=-0.35, envelope=18), True),
        ("slope=-0.6501", _s09(slope=-0.6501), False),
        ("slope=-0.3499", _s09(slope=-0.3499), False),
        ("envelope=17", _s09(envelope=17), False),
    ],
    10: [
        ("slope=-0.65", _s10(slope=-0.65), True),
        ("slope=-0.35", _s10(slope=-0.35), True),
        ("slope=-0.6501", _s10(slope=-0.6501), False),
        ("slope=-0.3499", _s10(slope=-0.3499), False),
        ("holds=False", _s10(holds=False), False),
        ("b_wu=inf", _s10(b_wu=float("inf")), False),
    ],
    11: [
        ("fractions=1", _s11(), True),
        ("envelope=0.95", _s11(envelope=0.95), False),
        ("cap=0.95", _s11(cap=0.95), False),
    ],
}


def test_every_verdict_has_edge_cases():
    assert sorted(CASES) == sorted(row.number for row in VERDICTS)


@pytest.mark.parametrize(
    "row, summary, passes",
    [(row, summary, passes) for row in VERDICTS for _, summary, passes in CASES[row.number]],
    ids=[f"{row.number:02d}-{case}" for row in VERDICTS for case, _, _ in CASES[row.number]],
)
def test_judge_at_window_edges(row, summary, passes):
    passed, detail = row.judge(summary)
    assert bool(passed) == passes, detail


def test_06_binomial_p_cannot_bind_where_the_fraction_passes():
    """Why 06 is its fraction test alone: at 200 runs and delta 0.1 every count the
    fraction passes (k <= 20) has one-sided binomial p >= 1/2, so a second condition
    p >= 0.01 could never fail a summary the fraction passes."""
    for k in range(21):
        assert binomtest(k, 200, 0.1, alternative="greater").pvalue >= 0.5, k

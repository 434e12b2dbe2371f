"""Regression pins for the batched form checks, the checks' one parameter,
and the checks that report a gallery claim agreeing with that claim."""
import inspect

import pytest

from matschrod.checks import (
    CHECKS,
    check_antisymmetric_continuity,
    check_beurling_denny,
    check_counterexample_merge,
    check_eigenvalue_sandwich,
    check_form_axioms,
    check_harmonic_oscillator,
)
from matschrod.gallery import (
    antisymmetric_continuity,
    degenerate_counterexample,
    harmonic_oscillator,
    validate_expected,
)

# Measured at the checks' full sizes with the per-pair implementation (one
# VectorState.random draw and one eval_form call per state), its worst-case
# fields starting at +-inf.
FORM_AXIOMS_SEED7 = {
    "trials": 10000,
    "failures": 0,
    "worst_accretivity_margin": 4.302978515945182,
    "worst_symmetry_gap": 2.6188679333988984e-16,
    "worst_continuity_excess": -1.7772177910234355,
}
BEURLING_DENNY_SEED7 = {
    "trials": 1000,
    "failures": 0,
    "min_gap": 0.2525377883779001,
    "max_edge_excess": 0.0,
}


def _assert_pinned(passed, detail, pinned):
    assert passed is True
    assert detail.keys() == pinned.keys()
    for key, value in pinned.items():
        if isinstance(value, int):
            assert detail[key] == value, key
        else:
            # summation order differs from the per-pair code, so allow roundoff
            assert detail[key] == pytest.approx(value, rel=1e-14, abs=1e-14), key


def test_form_axioms_keeps_the_random_stream():
    passed, detail = check_form_axioms(seed=7)
    _assert_pinned(passed, detail, FORM_AXIOMS_SEED7)


def test_beurling_denny_keeps_the_random_stream():
    passed, detail = check_beurling_denny(seed=7)
    _assert_pinned(passed, detail, BEURLING_DENNY_SEED7)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_every_check_takes_only_the_seed(name):
    # sizes and tolerances are pinned in each check's body, so no run can loosen a verdict
    assert str(inspect.signature(CHECKS[name])) == "(seed=42)"


# -- checks against the full gallery validation of the same problem ----------


def test_antisymmetric_continuity_custom_scales_use_the_gallery_tail_pair():
    # the gallery claim's tail pair for [1, 2, 4, 8] is (4, 8), not (10, 100)
    claim = validate_expected(antisymmetric_continuity([1, 2, 4, 8]))["claims"]["continuity_ratios"]
    ratios = claim["ratios"]
    assert len(ratios) == 4
    assert claim["tail_growth"] == ratios[3] / ratios[2]
    assert claim["passed"] is True


def test_antisymmetric_continuity_check_reports_the_gallery_claim():
    # every reported number is the full gallery validation's
    passed, detail = check_antisymmetric_continuity()
    claim = validate_expected(antisymmetric_continuity())["claims"]["continuity_ratios"]
    assert passed is claim["passed"] is True
    assert detail == {key: claim[key] for key in detail}
    assert set(detail) == {"ratios", "increasing", "tail_growth", "worst_halving_disagreement"}


def test_harmonic_oscillator_check_reports_the_gallery_claim():
    passed, detail = check_harmonic_oscillator()
    claim = validate_expected(harmonic_oscillator())["claims"]["lowest_eigenvalues"]
    assert passed is claim["passed"] is True
    assert (detail["L"], detail["N"], detail["rtol"]) == (10.0, 2000, 5e-3)
    assert detail["eigenvalues"] == claim["computed"]
    assert detail["max_rel_error"] == claim["max_rel_error"]


def test_counterexample_merge_check_reports_the_gallery_claims():
    passed, detail = check_counterexample_merge()
    cases = {
        "m2": degenerate_counterexample(m=2, N=500),
        "m3": degenerate_counterexample(m=3, N=500),
        "control": degenerate_counterexample(m=2, N=200, detune=0.35),
    }
    assert passed is True
    for label, problem in cases.items():
        claim = validate_expected(problem)["claims"]["merge"]
        assert claim["passed"] is True, label
        assert detail[f"{label}_passed"] is claim["merge_passed"], label
        assert detail[f"{label}_max_deviation"] == claim["max_deviation"], label
    assert detail["control_passed"] is False


def test_eigenvalue_sandwich_brackets_are_strict():
    # the one variable-V bracket verdict: with mu < V < nu somewhere, each bracket
    # clears the spectrum by a margin, so the check cannot pass by comparing B with itself
    passed, detail = check_eigenvalue_sandwich()
    assert passed is True
    assert detail["sandwich_passed"] == [True] * 5
    assert detail["max_lower_violation"] <= -0.1
    assert detail["max_upper_violation"] <= -0.1

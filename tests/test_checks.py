"""Regression pins for the batched form checks, check parameters, and the
checks that report a gallery claim agreeing with that claim."""
import pytest

from matschrod.checks import (
    check_beurling_denny,
    check_counterexample_merge,
    check_form_axioms,
    check_harmonic_oscillator,
    run_checks,
)
from matschrod.gallery import (
    antisymmetric_continuity,
    degenerate_counterexample,
    harmonic_oscillator,
    validate_expected,
)

# Measured with the per-pair implementation (one VectorState.random draw and
# one eval_form call per state), its worst-case fields starting at +-inf.
FORM_AXIOMS_SEED7 = {
    "trials": 50,
    "failures": 0,
    "worst_accretivity_margin": 56.334725905038674,
    "worst_symmetry_gap": 7.106113484442773e-17,
    "worst_continuity_excess": -2.996561791146721,
}
BEURLING_DENNY_SEED7 = {
    "trials": 30,
    "failures": 0,
    "min_gap": 633.7499269941707,
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
    passed, detail = check_form_axioms(seed=7, n_configs=5, pairs_per_config=10)
    _assert_pinned(passed, detail, FORM_AXIOMS_SEED7)


def test_beurling_denny_keeps_the_random_stream():
    passed, detail = check_beurling_denny(seed=7, n_configs=3, states_per_config=10)
    _assert_pinned(passed, detail, BEURLING_DENNY_SEED7)


# -- checks against the full gallery validation of the same problem ----------


def test_antisymmetric_continuity_custom_scales_use_the_gallery_tail_pair():
    # the gallery claim's tail pair for [1, 2, 4, 8] is (4, 8), not (10, 100)
    params = {"antisymmetric_continuity": {"n_list": [1, 2, 4, 8]}}
    (result,) = run_checks(["antisymmetric_continuity"], params)
    assert "error" not in result.detail
    ratios = result.detail["ratios"]
    assert len(ratios) == 4
    assert result.detail["tail_growth"] == ratios[3] / ratios[2]
    # every reported number is the full gallery validation's
    problem = antisymmetric_continuity([1, 2, 4, 8])
    claim = validate_expected(problem)["claims"]["continuity_ratios"]
    assert result.passed is claim["passed"] is True
    assert result.detail == {key: claim[key] for key in result.detail}
    assert set(result.detail) == {"ratios", "increasing", "tail_growth", "worst_halving_disagreement"}


def test_harmonic_oscillator_check_reports_the_gallery_claim():
    passed, detail = check_harmonic_oscillator(N=400)
    claim = validate_expected(harmonic_oscillator(N=400))["claims"]["lowest_eigenvalues"]
    assert passed is claim["passed"] is True
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


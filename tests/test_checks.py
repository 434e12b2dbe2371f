"""Regression pins for the batched form checks, and check parameters."""
import pytest

from matschrod.checks import check_beurling_denny, check_form_axioms, run_checks

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


def test_antisymmetric_continuity_custom_scales_use_the_gallery_tail_pair():
    # the gallery claim's tail pair for [1, 2, 4, 8] is (4, 8), not (10, 100)
    params = {"antisymmetric_continuity": {"n_list": [1, 2, 4, 8]}}
    (result,) = run_checks(["antisymmetric_continuity"], params)
    assert "error" not in result.detail
    ratios = result.detail["ratios"]
    assert len(ratios) == 4
    assert result.detail["tail_growth"] == ratios[3] / ratios[2]

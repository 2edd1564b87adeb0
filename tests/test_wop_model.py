"""Unit tests for the analytic window-of-opportunity model (section 3.2)."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.osp.wop import (
    OPERATOR_PHASES,
    OverlapClass,
    WoPProfile,
    expected_gain,
)


def test_progress_bounds_validated():
    profile = WoPProfile(OverlapClass.FULL)
    with pytest.raises(ValueError):
        expected_gain(profile, -0.1)
    with pytest.raises(ValueError):
        expected_gain(profile, 1.1)


def test_full_overlap_saves_everything_until_done():
    profile = WoPProfile(OverlapClass.FULL)
    assert expected_gain(profile, 0.0) == 1.0
    assert expected_gain(profile, 0.99) == 1.0
    assert expected_gain(profile, 1.0) == 0.0


def test_linear_overlap_decays_with_progress():
    profile = WoPProfile(OverlapClass.LINEAR)
    assert expected_gain(profile, 0.0) == 1.0
    assert expected_gain(profile, 0.25) == pytest.approx(0.75)
    assert expected_gain(profile, 1.0) == 0.0


def test_step_overlap_falls_at_first_output():
    profile = WoPProfile(OverlapClass.STEP)
    assert expected_gain(profile, 0.0) == 1.0
    assert expected_gain(profile, 0.01) == 0.0


def test_step_with_buffering_widens_window():
    profile = WoPProfile(OverlapClass.STEP, buffer_fraction=0.3)
    assert expected_gain(profile, 0.2) == 1.0
    assert expected_gain(profile, 0.31) == 0.0


def test_spike_shares_only_at_zero():
    profile = WoPProfile(OverlapClass.SPIKE)
    assert expected_gain(profile, 0.0) == 1.0
    assert expected_gain(profile, 1e-9) == 0.0


def test_spike_with_buffering_becomes_step():
    """Figure 4b: 'an ordered table scan that buffers N tuples can be
    converted from spike to step.'"""
    profile = WoPProfile(OverlapClass.SPIKE, buffer_fraction=0.1)
    assert expected_gain(profile, 0.05) == 1.0
    assert expected_gain(profile, 0.2) == 0.0


def test_materialization_converts_spike_to_linear():
    """Figure 4b: materialisation converts spike to linear.  (The paper
    adds 'albeit with a smaller effective slope'; the model charges
    re-reading stored results nothing, so the slope is the linear one.)"""
    profile = WoPProfile(OverlapClass.SPIKE, materialized=True)
    assert expected_gain(profile, 0.0) == pytest.approx(1.0)
    assert expected_gain(profile, 0.5) == pytest.approx(0.5)
    assert expected_gain(profile, 1.0) == 0.0


def test_operator_phase_classification_matches_paper():
    """Spot-check the section 3.2 operator classification table."""
    phases = dict(OPERATOR_PHASES["hash_join"])
    assert phases["build"] is OverlapClass.FULL
    assert phases["probe"] is OverlapClass.STEP
    assert OPERATOR_PHASES["single_aggregate"][0][1] is OverlapClass.FULL
    assert OPERATOR_PHASES["table_scan_unordered"][0][1] is OverlapClass.LINEAR
    assert OPERATOR_PHASES["table_scan_ordered"][0][1] is OverlapClass.SPIKE
    assert OPERATOR_PHASES["sort"][0] == ("sort", OverlapClass.FULL)
    rid, fetch = OPERATOR_PHASES["unclustered_index_scan"]
    assert rid[1] is OverlapClass.FULL and fetch[1] is OverlapClass.LINEAR


@settings(max_examples=60, deadline=None)
@given(
    cls=st.sampled_from(list(OverlapClass)),
    buffer_fraction=st.floats(0, 1),
    p1=st.floats(0, 1),
    p2=st.floats(0, 1),
)
def test_property_gain_is_monotone_nonincreasing(cls, buffer_fraction, p1, p2):
    """Later arrivals can never save MORE than earlier ones."""
    profile = WoPProfile(cls, buffer_fraction=buffer_fraction)
    lo, hi = sorted((p1, p2))
    assert expected_gain(profile, lo) >= expected_gain(profile, hi)


@settings(max_examples=60, deadline=None)
@given(
    cls=st.sampled_from(list(OverlapClass)),
    progress=st.floats(0, 1),
)
def test_property_gain_in_unit_interval(cls, progress):
    profile = WoPProfile(cls)
    assert 0.0 <= expected_gain(profile, progress) <= 1.0

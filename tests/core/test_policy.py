"""Unit tests for the split/reclaim load policy."""

import pytest

from repro.core.config import LoadPolicyConfig
from repro.core.policy import ChildLoad, Decision, LoadPolicy


def make_policy(**overrides):
    defaults = dict(
        overload_clients=300,
        underload_clients=150,
        consecutive_overload_reports=2,
        consecutive_underload_reports=3,
        split_cooldown=4.0,
        reclaim_cooldown=8.0,
        min_child_lifetime=10.0,
        reclaim_combined_factor=0.6,
    )
    defaults.update(overrides)
    return LoadPolicy(LoadPolicyConfig(**defaults))


def child(count, has_children=False, born_at=0.0):
    return ChildLoad(
        client_count=count,
        has_children=has_children,
        born_at=born_at,
    )


def test_thresholds():
    policy = make_policy()
    assert policy.is_overloaded(300)
    assert not policy.is_overloaded(299)
    assert policy.is_underloaded(149)
    assert not policy.is_underloaded(150)


def test_config_validation():
    with pytest.raises(ValueError):
        LoadPolicyConfig(overload_clients=100, underload_clients=100)
    with pytest.raises(ValueError):
        LoadPolicyConfig(consecutive_overload_reports=0)
    with pytest.raises(ValueError):
        LoadPolicyConfig(reclaim_combined_factor=1.5)


def test_single_overload_report_does_not_split():
    policy = make_policy()
    assert policy.on_load_report(0.0, 400, None, False) is Decision.NONE


def test_persistent_overload_splits():
    policy = make_policy()
    assert policy.on_load_report(0.0, 400, None, False) is Decision.NONE
    assert policy.on_load_report(1.0, 400, None, False) is Decision.SPLIT


def test_overload_streak_resets_on_normal_report():
    policy = make_policy()
    policy.on_load_report(0.0, 400, None, False)
    policy.on_load_report(1.0, 100, None, False)
    assert policy.on_load_report(2.0, 400, None, False) is Decision.NONE


def test_split_cooldown_blocks_second_split():
    policy = make_policy()
    policy.on_load_report(0.0, 400, None, False)
    assert policy.on_load_report(1.0, 400, None, False) is Decision.SPLIT
    policy.note_split_attempt()
    policy.note_split_success(1.0)
    # Still overloaded, but within the cooldown window.
    policy.on_load_report(2.0, 400, None, False)
    assert policy.on_load_report(3.0, 400, None, False) is Decision.NONE
    # After the cooldown (and renewed persistence) it may split again.
    assert policy.on_load_report(6.0, 400, None, False) is Decision.SPLIT


def test_busy_suppresses_all_decisions():
    policy = make_policy()
    policy.on_load_report(0.0, 400, None, busy=False)
    assert policy.on_load_report(1.0, 400, None, busy=True) is Decision.NONE


def test_reclaim_requires_sustained_underload():
    policy = make_policy(consecutive_underload_reports=3)
    kid = child(50, born_at=-100.0)
    assert policy.on_load_report(0.0, 50, kid, False) is Decision.NONE
    assert policy.on_load_report(1.0, 50, kid, False) is Decision.NONE
    assert policy.on_load_report(2.0, 50, kid, False) is Decision.RECLAIM


def test_reclaim_streak_resets_on_load_blip():
    policy = make_policy(consecutive_underload_reports=2)
    kid = child(50, born_at=-100.0)
    policy.on_load_report(0.0, 50, kid, False)
    policy.on_load_report(1.0, 200, kid, False)  # parent no longer under
    assert policy.on_load_report(2.0, 50, kid, False) is Decision.NONE


def test_no_reclaim_when_child_has_children():
    policy = make_policy(consecutive_underload_reports=1)
    kid = child(50, has_children=True, born_at=-100.0)
    for t in range(5):
        assert policy.on_load_report(float(t), 50, kid, False) is Decision.NONE


def test_no_reclaim_when_merged_load_too_high():
    policy = make_policy(consecutive_underload_reports=1)
    # 100 + 100 = 200 > 0.6 * 300 = 180.
    kid = child(100, born_at=-100.0)
    for t in range(5):
        assert policy.on_load_report(float(t), 100, kid, False) is Decision.NONE


def test_reclaim_respects_child_lifetime():
    policy = make_policy(consecutive_underload_reports=1, min_child_lifetime=10.0)
    kid = child(10, born_at=0.0)
    assert policy.on_load_report(5.0, 10, kid, False) is Decision.NONE
    assert policy.on_load_report(6.0, 10, kid, False) is Decision.NONE
    assert policy.on_load_report(10.0, 10, kid, False) is Decision.RECLAIM


def test_reclaim_cooldown():
    policy = make_policy(consecutive_underload_reports=1, min_child_lifetime=0.0)
    kid = child(10, born_at=-50.0)
    policy.on_load_report(0.0, 10, kid, False)
    assert policy.on_load_report(1.0, 10, kid, False) is Decision.RECLAIM
    policy.note_reclaim_attempt()
    policy.note_reclaim_success(1.0)
    assert policy.on_load_report(2.0, 10, kid, False) is Decision.NONE
    # 8-second cooldown, and the underload streak must rebuild.
    assert policy.on_load_report(10.0, 10, kid, False) is Decision.RECLAIM


def test_no_reclaim_without_child():
    policy = make_policy(consecutive_underload_reports=1)
    for t in range(5):
        assert policy.on_load_report(float(t), 10, None, False) is Decision.NONE


def test_split_takes_priority_over_reclaim():
    """An overloaded parent with an idle child must split, not reclaim."""
    policy = make_policy(
        consecutive_overload_reports=1, consecutive_underload_reports=1
    )
    kid = child(10, born_at=-100.0)
    assert policy.on_load_report(0.0, 400, kid, False) is Decision.SPLIT

"""Word-metric ball enumeration."""
import pytest

from relwalk import ball_elements
from relwalk.config import DEFAULT_STATE_CAP
from relwalk.errors import StateCapError


def test_free_group_ball_sizes_match_closed_form(f2_cfg):
    g = f2_cfg.group
    for r, size in enumerate([1, 5, 17, 53, 161, 485]):
        assert len(ball_elements(g, r, DEFAULT_STATE_CAP)) == size


def test_rank_two_lattice_ball_radius_one(z2_cfg):
    ball = ball_elements(z2_cfg.group, 1, DEFAULT_STATE_CAP)
    assert len(ball) == 7


def test_elements_sorted_shell_by_shell(f2_cfg):
    ball = ball_elements(f2_cfg.group, 3, DEFAULT_STATE_CAP)
    lengths = [e.word_length for e in ball]
    assert lengths == sorted(lengths)
    assert ball[0] == f2_cfg.group.identity


def test_state_cap_failure_reports_progress(f2_cfg):
    with pytest.raises(StateCapError) as exc:
        ball_elements(f2_cfg.group, 8, state_cap=100)
    assert str(exc.value) == "ball enumeration exceeded the cap of 100 states"


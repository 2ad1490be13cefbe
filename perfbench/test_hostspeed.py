"""Tests of the host-speed scaling."""

import pytest

from hostspeed import scaled_time


def test_probes_inside_the_interval_are_subtracted():
    starts = [0.1, 0.3, 0.5, 0.7, 0.9]
    durations = [0.01] * 5
    # host at reference speed: only the probe time comes off
    assert scaled_time(starts, durations, 0.0, 1.0, reference=0.01) == pytest.approx(0.95)


def test_slow_host_is_scaled_to_reference_speed():
    starts = [0.1, 0.3, 0.5, 0.7, 0.9]
    durations = [0.02] * 5
    assert scaled_time(starts, durations, 0.0, 1.0, reference=0.01) == pytest.approx(0.45)


def test_short_interval_uses_the_probes_around_it():
    starts = [0.0, 0.2, 0.4, 0.6, 5.0]
    durations = [0.02, 0.02, 0.02, 0.02, 0.08]
    # a 10 ms command with no probe inside: the window of 0.5 s about
    # its middle holds the probes at 0.2 and 0.4 s, not the one at 5 s
    value = scaled_time(starts, durations, 0.300, 0.310, reference=0.01, min_window=0.5)
    assert value == pytest.approx(0.005)
    with pytest.raises(ValueError):
        scaled_time(starts, durations, 2.0, 2.01, reference=0.01, min_window=0.5)

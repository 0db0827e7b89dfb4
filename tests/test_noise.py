from __future__ import annotations

import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from synbench.noise import IdleChannel, NoiseOptions, compile_noise, guide_values
from helpers import ZERO_NOISE_OPTIONS, make_line_cal
from oracles import composed_relaxation_flip

# exact zero plus meaningful magnitudes; subnormal times would only probe
# float representation, not the channel algebra
times = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e7, allow_nan=False))
t1s = st.floats(min_value=1e3, max_value=1e7, allow_nan=False)
p0s = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(t1=t1s, t2=t1s, p0=p0s, t=times)
@example(t1=1000.0, t2=1000.0, p0=sys.float_info.min, t=0.015625)
@settings(max_examples=200, deadline=None)
def test_flip_direction_identities(t1, t2, p0, t):
    ch = IdleChannel(t1_ns=t1, t2_ns=t2, t2_star_ns=0.5 * t2, p0=p0)
    total = ch.decay_fraction(t)
    up, down = ch.channel(t, x_basis=False)
    assert up + down == pytest.approx(total, rel=1e-12, abs=1e-300)
    assert total == pytest.approx(-math.expm1(-t / t1), rel=1e-12, abs=1e-300)
    # a subnormal P(1->0) keeps too few significant bits for a 1e-12 ratio
    if 0.0 < p0 < 1.0 and down >= sys.float_info.min:
        ratio = up / down
        assert ratio == pytest.approx((1.0 - p0) / p0, rel=1e-12)


@given(t1=t1s, t2=t1s, t=times)
@settings(max_examples=100, deadline=None)
def test_equilibrium_ground_state_never_excites(t1, t2, t):
    ch = IdleChannel(t1_ns=t1, t2_ns=t2, t2_star_ns=0.5 * t2, p0=1.0)
    assert ch.channel(t, x_basis=False)[0] == 0.0


@given(t2=t1s, t=times)
@settings(max_examples=100, deadline=None)
def test_phase_flip_formula_and_echo_timescale(t2, t):
    ch = IdleChannel(t1_ns=1e5, t2_ns=t2, t2_star_ns=0.5 * t2, p0=1.0)
    assert ch.p_phaseflip(t, echoed=True) == pytest.approx(
        -math.expm1(-t / t2) / 2.0, rel=1e-12, abs=1e-300
    )
    assert ch.p_phaseflip(t, echoed=False) == pytest.approx(
        -math.expm1(-t / (0.5 * t2)) / 2.0, rel=1e-12, abs=1e-300
    )
    assert ch.p_phaseflip(t, echoed=False) >= ch.p_phaseflip(t, echoed=True)
    # an X-basis delay flips the phase both ways, and T1 plays no part
    for echoed in (False, True):
        p = ch.p_phaseflip(t, echoed)
        assert ch.channel(t, x_basis=True, echoed=echoed) == (p, p)


def test_channel_monotone_and_saturating():
    ch = IdleChannel(t1_ns=1e5, t2_ns=8e4, t2_star_ns=4e4, p0=0.97)
    ts = [0.0, 10.0, 1e3, 1e5, 1e7, 1e9]
    for f in (
        lambda t: ch.channel(t, False)[1],
        lambda t: ch.channel(t, False)[0],
        lambda t: ch.p_phaseflip(t, True),
    ):
        values = [f(t) for t in ts]
        assert values == sorted(values)
    assert ch.channel(1e12, False)[1] == pytest.approx(0.97, rel=1e-9)
    assert ch.channel(1e12, False)[0] == pytest.approx(0.03, rel=1e-9)
    assert ch.p_phaseflip(1e12, True) == pytest.approx(0.5, rel=1e-9)
    assert all(0.0 <= ch.p_phaseflip(t, True) <= 0.5 for t in ts)


def test_guide_values_match_long_delay_expectations():
    # T1 = 100 us at t = T1/8, equilibrium ground state
    cal = make_line_cal(t1_ns=100_000.0, t2_ns=80_000.0)
    assert guide_values(cal, 2, "bit_flip", 1, 12_500.0, dd=False) == pytest.approx(0.1175, abs=5e-5)  # ~11.8%
    # echoing gives both directions the symmetrized decay
    for lv in (0, 1):
        assert guide_values(cal, 2, "bit_flip", lv, 12_500.0, dd=True) == pytest.approx(0.0606, abs=5e-5)  # ~6.1%
    # T2 = 80 us at t = T2/8
    assert guide_values(cal, 2, "phase_flip", 0, 10_000.0, dd=True) == pytest.approx(0.0588, abs=5e-5)  # ~5.9%


def test_guide_values_at_zero_delay_are_zero():
    cal = make_line_cal()
    for encoding in ("bit_flip", "phase_flip"):
        for lv in (0, 1):
            assert [guide_values(cal, 2, encoding, lv, 0.0, dd) for dd in (False, True)] == [0.0, 0.0]


def test_guide_direction_split_follows_equilibrium():
    cal = make_line_cal(p0=0.9)
    p_0to1, p_1to0 = (guide_values(cal, 2, "bit_flip", lv, 12_500.0, dd=False) for lv in (0, 1))
    assert p_0to1 / p_1to0 == pytest.approx(0.1 / 0.9, rel=1e-9)


def test_zero_noise_model_is_all_zero():
    cal = make_line_cal(t1_ns=math.inf, t2_ns=math.inf, t2_star_ns=math.inf)
    model = compile_noise(cal, ZERO_NOISE_OPTIONS)
    ch = model.idle[2]
    assert ch.channel(1e9, False) == (0.0, 0.0)
    assert ch.p_phaseflip(1e9, True) == 0.0
    assert model.cx[0, 1] == 0.0
    assert model.readout[0] == 0.0
    assert model.crosstalk == 0.0
    # infinite timescales alone already give zero idle error
    open_model = compile_noise(cal, NoiseOptions())
    ch = open_model.idle[2]
    assert ch.channel(1e9, False) == (0.0, 0.0)
    assert ch.p_phaseflip(1e9, True) == 0.0


def test_disable_masks_are_per_channel():
    cal = make_line_cal(readout_error=0.02, cx_error=0.01)
    model = compile_noise(cal, NoiseOptions(disable=frozenset({"relaxation", "cx"})))
    ch = model.idle[2]
    assert ch.channel(1e6, False) == (0.0, 0.0)
    assert model.cx[0, 1] == 0.0
    assert model.readout[0] == 0.02
    assert ch.p_phaseflip(1e6, True) > 0.0


def test_crosstalk_gate():
    cal = make_line_cal()
    assert compile_noise(cal, NoiseOptions(crosstalk_eta=0.7)).crosstalk == 0.7
    assert compile_noise(cal, NoiseOptions(disable=frozenset({"crosstalk"}))).crosstalk == 0.0


def test_options_validation():
    with pytest.raises(ValueError):
        NoiseOptions(crosstalk_eta=1.5)
    with pytest.raises(ValueError):
        NoiseOptions(disable=frozenset({"cosmic_rays"}))
    with pytest.raises(ValueError):
        NoiseOptions(prep_error=-0.1)
    with pytest.raises(ValueError, match="disable"):
        NoiseOptions(disable="cx")


@pytest.mark.parametrize("names", [["cx", "readout"], ("readout", "cx"), {"cx", "readout"}, ["cx", "readout", "cx"]])
def test_disable_takes_any_collection_of_names(names):
    assert NoiseOptions(disable=names).disable == frozenset({"cx", "readout"})


@pytest.mark.parametrize("start_bit", [0, 1])
@pytest.mark.parametrize("t_over_t1", [0.01, 0.05, 0.125, 0.25])
def test_echoed_relaxation_close_to_half_time_approximation(start_bit, t_over_t1):
    """The half-time formula 1 - exp(-(t/2)/T1) approximates the exact
    two-segment composition with an intervening flip; the gap is at most
    f(t/2)^2 in absolute terms, comfortably under 0.02 up to t = T1/4."""
    t1 = 100_000.0
    t = t_over_t1 * t1
    exact = composed_relaxation_flip(
        [("delay", t / 2), ("x", 0.0), ("delay", t / 2)], t1, p0=1.0, start_bit=start_bit
    )
    approx = 1.0 - math.exp(-(t / 2.0) / t1)
    f_half = 1.0 - math.exp(-(t / 2.0) / t1)
    assert abs(exact - approx) <= min(0.02, f_half**2 + 1e-12)

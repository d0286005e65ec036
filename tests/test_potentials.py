import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchctrl import potentials
from quenchctrl.errors import SolverError
from quenchctrl.potentials import (
    RESOLVENT_TOL,
    RHO_MAX,
    RHO_MIN,
    PotentialConfig,
    log_potential_prime,
    log_potential_second,
    obstacle_resolvent,
    quench_resolvent_detail,
    quench_scale,
)
from quenchctrl.nonlocal_op import Kernel
from quenchctrl.verify import bisection_quench_root


def test_log_potential_frozen_values():
    assert log_potential_prime(0.5) == 0.0
    assert log_potential_prime(0.75) == pytest.approx(np.log(3.0))
    assert log_potential_second(0.5) == pytest.approx(4.0)
    assert log_potential_second(0.25) == pytest.approx(16.0 / 3.0)


def test_log_potential_domain_errors():
    with pytest.raises(ValueError):
        log_potential_prime(0.0)
    with pytest.raises(ValueError):
        log_potential_prime(1.0)
    with pytest.raises(ValueError):
        log_potential_second(0.0)


def test_quench_scale_and_level_validation():
    assert quench_scale(1e-3) == pytest.approx(1e-3)
    assert quench_scale(0.01, exponent=2.0) == pytest.approx(1e-4)
    with pytest.raises(ValueError):
        quench_scale(0.0)
    with pytest.raises(ValueError):
        quench_scale(1.5)
    with pytest.raises(ValueError):
        quench_scale(float("nan"))


def test_potential_config_families_and_a1():
    cfg = PotentialConfig(f_strength=0.25, g_family="linear")
    assert cfg.f_prime(0.0) == pytest.approx(0.5)
    assert cfg.f_prime(1.0) == pytest.approx(-0.5)
    assert float(cfg.f_second(0.3)) == pytest.approx(-1.0)
    assert float(cfg.g(0.4)) == pytest.approx(0.4)
    assert float(cfg.g_prime(0.4)) == 1.0

    sat = PotentialConfig(g_family="saturating")
    assert float(sat.g(0.5)) == pytest.approx(0.75)
    assert float(sat.g_prime(0.5)) == pytest.approx(1.0)
    assert float(sat.g_second(0.5)) == pytest.approx(-2.0)

    zero = PotentialConfig(g_family="zero")
    assert float(zero.g(0.7)) == 0.0

    # derivatives that are constant in rho are Python floats, not arrays
    rho = np.linspace(0.0, 1.0, 5)
    for value, expected in (
        (cfg.f_second(rho), -1.0),
        (cfg.g_prime(rho), 1.0),
        (cfg.g_second(rho), 0.0),
        (sat.g_second(rho), -2.0),
        (zero.g_prime(rho), 0.0),
        (zero.g_second(rho), 0.0),
    ):
        assert isinstance(value, float) and value == expected
    assert isinstance(sat.g_prime(rho), np.ndarray)

    with pytest.raises(ValueError, match=r"\(A1\)"):
        PotentialConfig(f_strength=-1.0)
    with pytest.raises(ValueError, match=r"\(A1\)"):
        PotentialConfig(g_family="nosuch")
    with pytest.raises(ValueError, match=r"\(A1\)"):
        PotentialConfig(quench_exponent=0.0)


@pytest.mark.parametrize("family", potentials._G_FAMILIES)
def test_every_g_family_is_nonnegative_and_concave(family):
    # (A1) holds by construction of each family, so PotentialConfig does
    # not sample it; this test is where it is checked
    model = PotentialConfig(g_family=family)
    rho = np.linspace(0.0, 1.0, 1001)
    assert np.all(model.g(rho) >= 0.0)
    assert np.all(np.broadcast_to(model.g_second(rho), rho.shape) <= 0.0)


def test_quench_resolvent_residual_small():
    # rho-space residual is meaningful only while the root stays
    # representable, i.e. |log term| within ~36/s of the data
    rng = np.random.default_rng(1)
    b = rng.uniform(-0.5, 1.5, size=50)
    for s in (1.0, 0.3, 0.1, 0.05):
        rho = quench_resolvent_detail(b, s)[0]
        res = rho + s * log_potential_prime(rho) - b
        assert np.max(np.abs(res)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


def test_quench_resolvent_logit_residual_all_scales():
    # in the logit variable the equation stays well posed down to any s
    rng = np.random.default_rng(4)
    b = rng.uniform(-0.5, 1.5, size=50)
    for s in (1.0, 1e-2, 1e-4, 1e-6):
        _, y = quench_resolvent_detail(b, s)
        sig = 1.0 / (1.0 + np.exp(-np.clip(y, -700, 700)))
        res = sig + s * y - b
        assert np.max(np.abs(res)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


def test_quench_resolvent_matches_bisection():
    rng = np.random.default_rng(2)
    for _ in range(50):
        b = float(rng.uniform(-0.5, 1.5))
        s = float(10.0 ** rng.uniform(-4, 0))
        fast = quench_resolvent_detail(b, s)[0]
        slow = bisection_quench_root(b, s)
        assert abs(fast - slow) <= 1e-10


def test_quench_detail_slope_consistent():
    rho, slope = quench_resolvent_detail(0.3, 0.05)
    assert slope == pytest.approx(log_potential_prime(rho), rel=1e-10)
    # at the midpoint the log term vanishes: b = 0.5 gives rho = 0.5, y = 0
    rho_mid, y_mid = quench_resolvent_detail(0.5, 0.2)
    assert rho_mid == pytest.approx(0.5, abs=1e-13)
    assert abs(y_mid) <= 1e-12


def test_quench_resolvent_saturation_stays_representable():
    # far outside the box the rho iterate saturates but never leaves (0,1)
    rho_hi = quench_resolvent_detail(50.0, 1e-6)[0]
    rho_lo = quench_resolvent_detail(-50.0, 1e-6)[0]
    assert RHO_MIN <= rho_lo < rho_hi <= RHO_MAX
    assert rho_hi < 1.0
    assert rho_lo > 0.0


def test_quench_resolvent_contact_inputs_within_budget(monkeypatch):
    # data that straddle both obstacles: from the logit start, Newton
    # needs at most 6 evaluations per entry here, at every scale
    monkeypatch.setattr(potentials, "RESOLVENT_MAX_ITER", 8)
    b = np.linspace(-0.1, 1.1, 64)
    for s in (5e-4, 6.25e-4, 5e-6, 5e-8, 5e-11):
        try:
            rho, y = quench_resolvent_detail(b, s)
        except SolverError as exc:
            pytest.fail(f"s = {s}: {exc}")
        assert np.all((rho > 0.0) & (rho < 1.0)) and np.all(np.isfinite(y))


def test_log_potential_second_finite_at_the_floor():
    assert np.isfinite(log_potential_second(RHO_MIN))
    assert np.isfinite(log_potential_second(RHO_MAX))


def test_obstacle_resolvent_exact_cases():
    rho, xi = obstacle_resolvent(1.3, 0.1)
    assert rho == 1.0 and xi == pytest.approx(3.0)
    rho, xi = obstacle_resolvent(0.4, 0.1)
    assert rho == 0.4 and xi == 0.0
    rho, xi = obstacle_resolvent(-0.2, 0.1)
    assert rho == 0.0 and xi == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        obstacle_resolvent(0.5, 0.0)


def test_resolvents_converge_to_each_other():
    # the quench resolvent approaches the obstacle projection as the
    # logarithmic scale vanishes
    b = np.linspace(-0.5, 1.5, 41)
    prev_gap = None
    for s in (1e-2, 1e-4, 1e-6):
        rho_q = quench_resolvent_detail(b, s)[0]
        rho_o, _ = obstacle_resolvent(b, 1.0)
        gap = float(np.max(np.abs(rho_q - rho_o)))
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 1e-3


@settings(max_examples=60, deadline=None)
@given(
    b1=st.floats(-2.0, 3.0),
    b2=st.floats(-2.0, 3.0),
    s=st.floats(1e-6, 1.0),
)
def test_quench_resolvent_monotone_and_nonexpansive(b1, b2, s):
    r1 = quench_resolvent_detail(b1, s)[0]
    r2 = quench_resolvent_detail(b2, s)[0]
    if b1 < b2:
        assert r1 <= r2
    # resolvent of a monotone graph: 1-Lipschitz, with a hair of
    # rounding slack from the clip at the representable edge
    assert abs(r1 - r2) <= abs(b1 - b2) + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    edge=st.sampled_from([0.0, 1.0]),
    width=st.sampled_from([1e-3, 1e-12]),
    f1=st.floats(-1.0, 1.0),
    f2=st.floats(-1.0, 1.0),
    log_s=st.floats(np.log10(5e-15), 0.0),
)
def test_quench_resolvent_at_the_extremes(edge, width, f1, f2, log_s):
    # data within 1e-3 and 1e-12 of an obstacle, s from 1e-12·tau of the
    # default run (5e-15) up to 1: rho stays strictly inside (0, 1), the
    # slope stays finite, and monotonicity and the 1-Lipschitz bound hold
    # up to the stopping tolerance on each side
    s = 10.0**log_s
    b1, b2 = edge + width * f1, edge + width * f2
    r1, y1 = quench_resolvent_detail(b1, s)
    r2, y2 = quench_resolvent_detail(b2, s)
    assert 0.0 < r1 < 1.0 and 0.0 < r2 < 1.0
    assert np.isfinite(y1) and np.isfinite(y2)
    slack = 2.0 * RESOLVENT_TOL * max(1.0, abs(b1), abs(b2))
    if b1 < b2:
        assert r1 <= r2 + slack
    assert abs(r1 - r2) <= abs(b1 - b2) + slack


@settings(max_examples=60, deadline=None)
@given(
    b1=st.floats(-2.0, 3.0),
    b2=st.floats(-2.0, 3.0),
    tau=st.floats(1e-3, 1.0),
)
def test_obstacle_resolvent_nonexpansive(b1, b2, tau):
    r1, _ = obstacle_resolvent(b1, tau)
    r2, _ = obstacle_resolvent(b2, tau)
    assert abs(r1 - r2) <= abs(b1 - b2) + 1e-15
    assert 0.0 <= r1 <= 1.0


@settings(max_examples=40, deadline=None)
@given(rho=st.floats(1e-6, 1.0 - 1e-6))
def test_log_prime_inverts_sigmoid(rho):
    y = log_potential_prime(rho)
    back = 1.0 / (1.0 + np.exp(-y))
    assert back == pytest.approx(rho, rel=1e-9, abs=1e-12)


def test_scalar_input_gives_the_bits_of_a_one_element_array():
    # each function returns numpy values of its input's shape: a Python
    # float gives a 0-d result with the bits that element 0 of the
    # one-element array gets
    cases = [
        (log_potential_prime, (0.3, 1e-300, 0.999)),
        (log_potential_second, (0.3, RHO_MIN, RHO_MAX)),
        (lambda b: quench_resolvent_detail(b, 0.05), (0.3, 0.7, -0.4)),
        (lambda b: quench_resolvent_detail(b, 5e-11), (-0.1, 0.5, 1.1)),
        (lambda b: obstacle_resolvent(b, 0.1), (1.3, 0.4, -0.2)),
        (Kernel.gaussian(0.8, 0.2).evaluate, (0.0, 0.25, 3.0)),
        (Kernel("newtonian", amplitude=3.0, core_radius=0.1).evaluate, (0.01, 0.5)),
        (Kernel.tophat(1.5, 0.3).evaluate, (0.2, 0.4)),
        (Kernel.zero().evaluate, (0.5,)),
        (lambda b: bisection_quench_root(b, 0.2), (0.3, 1.2, -3.0)),
    ]
    for fn, xs in cases:
        for x in xs:
            one, vec = fn(x), fn(np.array([x]))
            if not isinstance(one, tuple):
                one, vec = (one,), (vec,)
            for a, v in zip(one, vec):
                assert np.ndim(a) == 0 and v.shape == (1,)
                assert np.asarray(a).tobytes() == v.tobytes(), (fn, x)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchctrl.grid import Grid, inner_product
from quenchctrl.nonlocal_op import Kernel, NonlocalOperator
from quenchctrl.verify import (
    convolution_quadrature_oracle,
    dense_nonlocal,
    kernel_value_reference,
)


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel("gaussian", amplitude=1.0, width=0.0)
    with pytest.raises(ValueError):
        Kernel("nosuch", amplitude=1.0)
    with pytest.raises(ValueError):
        Kernel("newtonian", amplitude=1.0, core_radius=0.0)


def test_kernel_frozen_point_values():
    k = Kernel.gaussian(2.0, 0.5)
    # 2*exp(-r^2/(2*0.25))
    assert k.evaluate(0.0) == pytest.approx(2.0)
    assert k.evaluate(0.5) == pytest.approx(2.0 * np.exp(-0.5))
    n = Kernel("newtonian", amplitude=3.0, core_radius=0.1)
    assert n.evaluate(0.5) == pytest.approx(6.0)
    assert n.evaluate(0.01) == pytest.approx(30.0)  # core radius caps the blowup
    t = Kernel.tophat(1.5, 0.3)
    assert t.evaluate(0.2) == pytest.approx(1.5)
    assert t.evaluate(0.4) == 0.0


def test_kernel_matches_reference_formulas():
    r = np.linspace(0.0, 2.0, 23)
    for k in (
        Kernel.gaussian(1.3, 0.4),
        Kernel("newtonian", amplitude=0.7, core_radius=0.05),
        Kernel.tophat(2.0, 0.6),
        Kernel.zero(),
    ):
        got = k.evaluate(r)
        ref = np.array([kernel_value_reference(k, ri) for ri in r])
        assert np.allclose(got, ref, rtol=1e-15, atol=1e-300)


def test_zero_kernel_annihilates():
    g = Grid.line(16, 1.0)
    op = NonlocalOperator(Kernel.zero(), g)
    f = np.random.default_rng(0).standard_normal(16)
    assert np.array_equal(op.apply_values(f), np.zeros(16))


def test_tophat_on_constant_counts_neighbours():
    # radius covers the whole interval, so B[1] = amplitude * |domain|
    g = Grid.line(8, 1.0)
    op = NonlocalOperator(Kernel.tophat(2.0, 5.0), g)
    out = op.apply_values(np.ones(8))
    assert np.allclose(out, 2.0, rtol=0, atol=1e-15)


def test_adjoint_identity_exact_scale():
    rng = np.random.default_rng(11)
    g = Grid.box((7, 4), (2.0, 1.0))
    op = NonlocalOperator(Kernel.gaussian(0.9, 0.25), g)
    for _ in range(25):
        v = rng.standard_normal(g.shape)
        w = rng.standard_normal(g.shape)
        lhs = np.sum(op.apply_values(v) * w) * g.cell_volume
        rhs = np.sum(v * op.apply_adjoint_values(w)) * g.cell_volume
        norms = np.sqrt(inner_product(g, v, v) * inner_product(g, w, w))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, norms)


def test_gaussian_symmetric_kernel_is_self_adjoint():
    # the assembled table is symmetric and (block-)Toeplitz: entry (i, j)
    # is the offset weight at the index offset from cell i to cell j
    for g in (Grid.line(12, 1.0), Grid.box((7, 5), (1.0, 1.4))):
        op = NonlocalOperator(Kernel.gaussian(1.0, 0.2), g)
        w = dense_nonlocal(op)
        assert w.shape == (g.n_cells, g.n_cells)
        assert np.allclose(w, w.T, rtol=0, atol=1e-15)
        idx = np.indices(g.shape).reshape(g.dim, -1)
        lag = idx[:, None, :] - idx[:, :, None] + (np.array(g.shape) - 1)[:, None, None]
        assert np.allclose(w, op.weights[tuple(lag)], rtol=0, atol=1e-15)


def test_large_box_stores_no_dense_table():
    """128² cells: a dense table would take 2.1 GB; the offset weights and
    their spectrum stay under 1 MB, and sampled cells match the oracle.

    Ties of the top hat (r == radius) are decided on |d·h| here and on a
    difference of cell centres in the oracle, so the two can disagree by
    a cell pair on such grids, e.g. box((6, 5), (1.0, 1.5)) with
    tophat(2.0, 0.6).  The kernel below has no ties.
    """
    g = Grid.box((128, 128), (1.0, 1.0))
    k = Kernel.gaussian(1.0, 0.1)
    op = NonlocalOperator(k, g)
    stored = sum(a.nbytes for a in vars(op).values() if isinstance(a, np.ndarray))
    assert stored < 1_000_000
    f = np.random.default_rng(3).standard_normal(g.shape)
    out = op.apply_values(f)
    cells = [(0, 0), (37, 101), (127, 64)]
    pts = np.array([[g.centers()[0][i], g.centers()[1][j]] for i, j in cells])
    ref = convolution_quadrature_oracle(k, g, f, points=pts)
    got = np.array([out[i, j] for i, j in cells])
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_refinement_toward_fine_reference():
    # evaluate B[sin(pi x)] on nested grids against a very fine midpoint
    # quadrature; the midpoint rule converges at second order
    k = Kernel.gaussian(1.0, 0.2)
    fine = Grid.line(4096, 1.0)
    xf = fine.centers()[0]
    ff = np.sin(np.pi * xf)

    def fine_value(x0: float) -> float:
        return float(np.sum(k.evaluate(np.abs(x0 - xf)) * ff) * fine.cell_volume)

    errs = []
    for n in (16, 32, 64):
        g = Grid.line(n, 1.0)
        x = g.centers()[0]
        op = NonlocalOperator(k, g)
        got = op.apply_values(np.sin(np.pi * x))
        ref = np.array([fine_value(xi) for xi in x])
        errs.append(float(np.max(np.abs(got - ref))))
    assert errs[0] > errs[1] > errs[2]
    order = np.log2(errs[0] / errs[2]) / 2.0
    assert 1.5 < order < 2.5


def test_derivative_is_anchor_independent():
    g = Grid.line(9, 1.0)
    op = NonlocalOperator(Kernel.gaussian(1.0, 0.3), g)
    rng = np.random.default_rng(2)
    anchor_a = rng.standard_normal(9)
    anchor_b = rng.standard_normal(9)
    direction = rng.standard_normal(9)
    da = op.apply_values(anchor_a + direction) - op.apply_values(anchor_a)
    db = op.apply_values(anchor_b + direction) - op.apply_values(anchor_b)
    exact = op.apply_values(direction)
    assert np.allclose(da, exact, rtol=0, atol=1e-12)
    assert np.allclose(db, exact, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    vals=st.lists(st.floats(-5, 5), min_size=6, max_size=6),
    amp=st.floats(0.1, 3.0),
)
def test_linearity_property(vals, amp):
    g = Grid.line(6, 1.0)
    op = NonlocalOperator(Kernel.gaussian(amp, 0.25), g)
    f = np.array(vals)
    two = op.apply_values(2.0 * f)
    one = op.apply_values(f)
    assert np.allclose(two, 2.0 * one, rtol=1e-12, atol=1e-12)

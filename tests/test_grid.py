"""Grid containers, region masks, measures, and gradients."""

import numpy as np
import pytest

from regscan.grid import (
    Ball,
    Box3,
    Cube,
    Cylinder,
    ScalarGrid,
    SpaceTimeField,
    VectorGrid,
    gradient,
    nearest_frame,
    region_measure,
)


def unit_box(n=8):
    return Box3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (n, n, n))


def test_box_geometry():
    box = Box3((0, 0, 0), (1, 2, 4), (4, 4, 8))
    assert box.spacing == (0.25, 0.5, 0.5)
    assert box.cell_volume == pytest.approx(0.0625)
    assert box.extent == (1.0, 2.0, 4.0)
    cx, cy, cz = box.centers()
    assert cx[0] == pytest.approx(0.125)
    assert np.allclose(np.diff(cx), 0.25)
    assert len(cz) == 8
    mesh = box.center_mesh()
    assert mesh.shape == (3, 4, 4, 8)
    assert mesh[0, 1, 0, 0] == pytest.approx(cx[1])


@pytest.mark.parametrize("lo,hi,n", [
    ((0, 0, 0), (1, 1, 0.5), (4, 4)),           # wrong arity
    ((0, 0, 0), (1, 0, 1), (4, 4, 4)),          # hi not above lo
    ((0, 0, 0), (1, 1, 1), (4, 0, 4)),          # empty axis
    ((np.nan, 0, 0), (1, 1, 1), (4, 4, 4)),     # NaN corner: hi <= lo is false
    ((0, 0, 0), (1, np.inf, 1), (4, 4, 4)),     # infinite corner
    ((-np.inf, 0, 0), (1, 1, 1), (4, 4, 4)),
])
def test_box_validation(lo, hi, n):
    with pytest.raises(ValueError):
        Box3(lo, hi, n)


def test_contains_points():
    box = unit_box(4)
    inside = box.contains_points([(0.5, 0.5, 0.5), (0.0, 1.0, 0.3)])
    assert inside.all()
    assert not box.contains_points((1.5, 0.5, 0.5))


def test_scalar_grid_sampling_and_sum():
    box = unit_box(10)
    g = ScalarGrid.sample(box, lambda x, y, z: x)
    # cell-centered samples of x over [0,1] integrate exactly to 1/2
    assert g.data.sum() * box.cell_volume == pytest.approx(0.5, rel=1e-13)
    mask = g.data > 0.5
    assert g.data[mask].sum() * box.cell_volume == pytest.approx(0.075 * 5, rel=1e-13)
    with pytest.raises(ValueError):
        ScalarGrid(box, np.zeros((3, 3, 3)))


def test_vector_grid_magnitude_and_data():
    box = unit_box(4)
    arr = np.stack([
        np.full(box.n, 3.0), np.full(box.n, 4.0), np.full(box.n, 12.0),
    ])
    v = VectorGrid(box, arr)
    assert np.allclose(v.magnitude().data, 13.0)
    # data is the array passed in, and data[a] is a view of component a
    assert v.data is arr
    arr[1, 0, 0, 0] = -1.0
    assert v.data[1][0, 0, 0] == -1.0


def test_vector_grid_rejects_wrong_shaped_data():
    box = unit_box(4)
    with pytest.raises(ValueError, match="expected shape"):
        VectorGrid(box, np.zeros((2, 4, 4, 4)))
    with pytest.raises(ValueError, match="expected shape"):
        VectorGrid(box, np.zeros((3, 5, 5, 5)))
    with pytest.raises(ValueError, match="expected shape"):
        VectorGrid(box, np.zeros(box.n))


def constant_frame(box, value=1.0):
    return VectorGrid(box, np.full((3, *box.n), value))


def test_space_time_field_validation():
    box = unit_box(4)
    f0 = constant_frame(box)
    with pytest.raises(ValueError):
        SpaceTimeField([0.0, 0.0], [f0, f0])       # not increasing
    with pytest.raises(ValueError):
        SpaceTimeField([0.0], [f0, f0])            # length mismatch
    with pytest.raises(ValueError):
        SpaceTimeField([0.0, 1.0], [f0, constant_frame(unit_box(5))])
    f = SpaceTimeField([0.0, 0.5, 1.0], [f0, f0, f0])
    assert nearest_frame(f.times, 0.5) == 1
    with pytest.warns(UserWarning):
        assert nearest_frame(f.times, 0.52) == 1
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="time must be finite"):
            nearest_frame(f.times, t)


@pytest.mark.parametrize("times", [[0.0, 0.1, np.nan, 0.3], [0.0, np.inf]], ids=["nan", "inf"])
def test_space_time_field_rejects_non_finite_times(times):
    # np.diff(times) <= 0 is False at a NaN, so the order check alone lets it in
    f0 = constant_frame(unit_box(4))
    with pytest.raises(ValueError, match="field times must be finite, got .*(nan|inf)"):
        SpaceTimeField(times, [f0] * len(times))


def test_region_masks_match_direct_predicates():
    box = unit_box(16)
    x, y, z = box.center_mesh()
    ball = Ball((0.5, 0.5, 0.5), 0.3)
    expected = (x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2 < 0.3 ** 2
    assert np.array_equal(ball.mask(box), expected)
    cube = Cube((0.25, 0.25, 0.25), 0.5)
    expected = ((x >= 0.25) & (x < 0.75) & (y >= 0.25) & (y < 0.75)
                & (z >= 0.25) & (z < 0.75))
    assert np.array_equal(cube.mask(box), expected)
    assert cube.volume == pytest.approx(0.125)
    assert ball.volume == pytest.approx(4 / 3 * np.pi * 0.027)


def test_region_validation():
    with pytest.raises(ValueError):
        Ball((0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        Cube((0, 0, 0), -1.0)
    with pytest.raises(ValueError):
        Cylinder((0, 0, 0), t0=1.0, r=0.0)
    for bad in (np.nan, np.inf, -np.inf):
        for make, message in (
                (lambda: Ball((0, bad, 0), 1.0), "ball center"),
                (lambda: Ball((0, 0, 0), bad), "ball r"),
                (lambda: Cube((bad, 0, 0), 1.0), "cube corner"),
                (lambda: Cube((0, 0, 0), bad), "cube side"),
                (lambda: Cylinder((0, 0, bad), t0=1.0, r=0.5), "cylinder center"),
                (lambda: Cylinder((0, 0, 0), t0=bad, r=0.5), "cylinder t0"),
                (lambda: Cylinder((0, 0, 0), t0=1.0, r=bad), "cylinder r")):
            with pytest.raises(ValueError, match=f"{message} must be finite"):
                make()


def test_cylinder_accessors():
    cyl = Cylinder((0.5, 0.5, 0.5), t0=2.0, r=0.25)
    assert cyl.t_start == pytest.approx(2.0 - 0.0625)
    assert cyl.ball == Ball((0.5, 0.5, 0.5), 0.25)


def test_region_measure_by_cell_counting():
    box = unit_box(16)
    g = ScalarGrid.sample(box, lambda x, y, z: 2.0 * (x < 0.5) + 0.5)
    cube = Cube((0.0, 0.0, 0.0), 1.0)
    # values are 2.5 on the left half, 0.5 on the right
    assert region_measure(g, cube, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert region_measure(g, cube, 0.25) == pytest.approx(1.0, rel=1e-12)
    assert region_measure(g, cube, 2.5) == 0.0     # strict inequality
    half = Cube((0.5, 0.0, 0.0), 0.5)
    assert region_measure(g, half, 1.0) == 0.0
    with pytest.raises(ValueError):
        region_measure(g, cube, -1.0)
    with pytest.warns(UserWarning):
        assert region_measure(g, Ball((5.0, 5.0, 5.0), 0.1), 0.0) == 0.0


def test_gradient_of_a_scalar_exact_on_affine():
    box = Box3((0, 0, 0), (1, 2, 1), (8, 8, 8))
    g = ScalarGrid.sample(box, lambda x, y, z: 2.0 * x - 3.0 * y + 0.5 * z)
    grad = gradient(g.data, box.spacing)
    assert grad.shape == (3, 8, 8, 8)
    assert np.allclose(grad[0], 2.0, atol=1e-12)
    assert np.allclose(grad[1], -3.0, atol=1e-12)
    assert np.allclose(grad[2], 0.5, atol=1e-12)


def test_velocity_gradient_tensor_layout():
    box = unit_box(8)
    v = VectorGrid.sample(box, lambda x, y, z: (y, z, x))
    tensor = gradient(v.data, box.spacing)
    assert tensor.shape == (3, 3, 8, 8, 8)
    # d u_i / d x_j: u1 = y, u2 = z, u3 = x
    assert np.allclose(tensor[0, 1], 1.0, atol=1e-12)
    assert np.allclose(tensor[1, 2], 1.0, atol=1e-12)
    assert np.allclose(tensor[2, 0], 1.0, atol=1e-12)
    assert np.allclose(tensor[0, 0], 0.0, atol=1e-12)


def stacked_gradient(data, spacing):
    """np.gradient one (nx, ny, nz) array at a time, stacked component first."""
    if data.ndim == 3:
        return np.stack(np.gradient(data, *spacing, edge_order=2))
    return np.stack([stacked_gradient(c, spacing) for c in data])


@pytest.mark.parametrize("shape", [(32, 32, 32), (3, 32, 32, 32), (3, 9, 11, 7),
                                   (3, 3, 5, 4), (3, 3, 9, 11, 7)])
def test_gradient_is_per_component_np_gradient_bit_for_bit(shape):
    data = np.random.default_rng(1).normal(size=shape)
    spacing = (0.1, 0.25, 1.0 / 3.0)
    out = gradient(data, spacing)
    assert out.shape == (3, *shape)
    assert out.tobytes() == stacked_gradient(data, spacing).tobytes()
    # and np.gradient over the last three axes at once, stacked before them
    ref = np.stack(np.gradient(data, *spacing, axis=(-3, -2, -1), edge_order=2), axis=-4)
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("window", [(slice(5, 17), slice(0, 9), slice(20, 32)),
                                    (slice(1, 4), slice(28, 32), slice(0, 32))])
def test_gradient_of_a_sliced_window_is_bit_for_bit(window):
    # a (non-contiguous) index window of a frame, as the cylinder quantities take it
    data = np.random.default_rng(2).normal(size=(3, 32, 32, 32))[(slice(None), *window)]
    spacing = (0.1, 0.25, 1.0 / 3.0)
    assert gradient(data, spacing).tobytes() == stacked_gradient(data, spacing).tobytes()


@pytest.mark.parametrize("shape", [(2, 4, 4), (4, 2, 4), (3, 4, 4, 2)])
def test_gradient_needs_three_cells_per_axis(shape):
    with pytest.raises(ValueError, match="at least 3 cells per axis"):
        gradient(np.zeros(shape), (1.0, 1.0, 1.0))

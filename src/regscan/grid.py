"""Cell-centered grids, regions, and space-time velocity containers.

Fields are stored cell-centered on axis-aligned boxes: the cell (i, j, k)
of a box with spacing h owns the sample at ``lo + (index + 1/2) * h``.
Data arrays are indexed ``data[ix, iy, iz]``; serialization flattens them
x-fastest (Fortran order). A VectorGrid holds one float array of shape
``(3, nx, ny, nz)``, component first; its ``.data`` is that array itself,
not a copy, and ``.data[a]`` is component a. One
``gradient(data, spacing)`` differentiates the last three axes of any array.
"""

import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Box3",
    "ScalarGrid",
    "VectorGrid",
    "SpaceTimeField",
    "FieldWindow",
    "frame_cells",
    "nearest_frame",
    "Ball",
    "Cube",
    "Cylinder",
    "region_measure",
    "gradient",
]


@dataclass(frozen=True)
class Box3:
    """Axis-aligned box [lo, hi] discretized into n cells per axis."""

    lo: tuple
    hi: tuple
    n: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        n = tuple(int(v) for v in self.n)
        if len(lo) != 3 or len(hi) != 3 or len(n) != 3:
            raise ValueError("Box3 requires 3 components for lo, hi, n")
        _require_finite("box", lo=lo, hi=hi)
        if any(h <= l for l, h in zip(lo, hi)):
            raise ValueError(f"box must satisfy hi > lo componentwise, got lo={lo} hi={hi}")
        if any(m <= 0 for m in n):
            raise ValueError(f"cell counts must be positive, got n={n}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "n", n)

    @property
    def spacing(self):
        return tuple((h - l) / m for l, h, m in zip(self.lo, self.hi, self.n))

    @property
    def cell_volume(self):
        hx, hy, hz = self.spacing
        return hx * hy * hz

    @property
    def extent(self):
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    def centers(self):
        """Per-axis arrays of cell-center coordinates."""
        return tuple(
            l + (np.arange(m) + 0.5) * h
            for l, h, m in zip(self.lo, self.spacing, self.n)
        )

    def center_mesh(self):
        """Cell-center coordinates broadcast to the full (3, nx, ny, nz) mesh."""
        cx, cy, cz = self.centers()
        return np.stack(np.meshgrid(cx, cy, cz, indexing="ij"))

    def contains_points(self, pts):
        pts = np.asarray(pts, dtype=float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=-1)


@dataclass
class ScalarGrid:
    """One real sample per cell of a Box3."""

    box: Box3
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != self.box.n:
            raise ValueError(f"expected shape {self.box.n}, got {self.data.shape}")

    @classmethod
    def sample(cls, box, fn):
        """Sample fn(x, y, z) at cell centers (fn must broadcast)."""
        return cls(box, fn(*box.center_mesh()))


@dataclass
class VectorGrid:
    """A sampled velocity field: one float array of shape (3, nx, ny, nz).

    ``data[a]`` is component a. ``data`` is the grid's own array, so
    callers that write into it change the grid.
    """

    box: Box3
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (3, *self.box.n):
            raise ValueError(f"expected shape {(3, *self.box.n)}, got {self.data.shape}")

    @classmethod
    def sample(cls, box, fn):
        """Sample fn(x, y, z) -> (u1, u2, u3) at cell centers."""
        return cls(box, np.stack([np.broadcast_to(u, box.n)
                                  for u in fn(*box.center_mesh())]))

    def magnitude(self):
        """|u| as a ScalarGrid."""
        u1, u2, u3 = self.data
        return ScalarGrid(self.box, np.sqrt(u1 ** 2 + u2 ** 2 + u3 ** 2))


@dataclass
class SpaceTimeField:
    """Velocity frames u(., t_i) on a shared box at strictly increasing times."""

    times: np.ndarray
    frames: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or len(self.times) != len(self.frames):
            raise ValueError("times must be 1-d and match the number of frames")
        if len(self.frames) == 0:
            raise ValueError("need at least one frame")
        _require_finite("field", times=self.times)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        box = self.frames[0].box
        if any(f.box != box for f in self.frames):
            raise ValueError("all frames must share one box")

    @property
    def box(self):
        return self.frames[0].box


# frames on an index window of a box: frames[i] holds the (3, ...) values
# at times[i] of the cells from index `origin` on
FieldWindow = namedtuple("FieldWindow", "box times frames origin")


def frame_cells(f, i, win):
    """Frame i's (3, ...) values on an index window of the box, from a
    SpaceTimeField or a FieldWindow, whose frames start at its origin."""
    data, at = ((f.frames[i].data, (0, 0, 0)) if isinstance(f, SpaceTimeField)
                else (f.frames[i], f.origin))
    return data[(slice(None), *(slice(w.start - a, w.stop - a) for w, a in zip(win, at)))]


def nearest_frame(times, t):
    """Index of the time nearest to t (warn when t is not one of them)."""
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    i = int(np.argmin(np.abs(np.subtract(times, t))))
    if abs(times[i] - t) > 1e-9 * max(1.0, abs(t)):
        warnings.warn(
            f"time {t} is not a sample time; using nearest frame t={times[i]}"
        )
    return i


def _require_finite(region, **values):
    for name, v in values.items():
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{region} {name} must be finite, got {v}")


@dataclass(frozen=True)
class Ball:
    """Open ball B(center, r)."""

    center: tuple
    r: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        object.__setattr__(self, "r", float(self.r))
        _require_finite("ball", center=self.center, r=self.r)
        if self.r <= 0:
            raise ValueError("ball radius must be positive")

    def mask(self, box):
        x, y, z = np.meshgrid(*box.centers(), indexing="ij", sparse=True)
        cx, cy, cz = self.center
        return (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2 < self.r ** 2

    @property
    def volume(self):
        return 4.0 / 3.0 * np.pi * self.r ** 3


@dataclass(frozen=True)
class Cube:
    """Half-open axis cube [corner, corner + side)^3."""

    corner: tuple
    side: float

    def __post_init__(self):
        object.__setattr__(self, "corner", tuple(float(v) for v in self.corner))
        object.__setattr__(self, "side", float(self.side))
        _require_finite("cube", corner=self.corner, side=self.side)
        if self.side <= 0:
            raise ValueError("cube side must be positive")

    def mask(self, box):
        x, y, z = np.meshgrid(*box.centers(), indexing="ij", sparse=True)
        m = np.ones(box.n, dtype=bool)
        for coord, c in zip((x, y, z), self.corner):
            m &= (coord >= c) & (coord < c + self.side)
        return m

    @property
    def volume(self):
        return self.side ** 3


@dataclass(frozen=True)
class Cylinder:
    """Parabolic cylinder Q(z0, r) = B(x0, r) x (t0 - r^2, t0]."""

    center: tuple   # (x0, y0, z0)
    t0: float
    r: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "r", float(self.r))
        _require_finite("cylinder", center=self.center, t0=self.t0, r=self.r)
        if self.r <= 0:
            raise ValueError("cylinder radius must be positive")

    @property
    def ball(self):
        return Ball(self.center, self.r)

    @property
    def t_start(self):
        return self.t0 - self.r ** 2


def region_measure(f, region, h):
    """Measure of {x in region : |f(x)| > h} by cell counting.

    Cells belong to the region iff their center does; the result is the
    count times the cell volume. A region disjoint from the sampled box
    yields 0.0 with a warning.
    """
    if h < 0:
        raise ValueError("level h must be nonnegative")
    mask = region.mask(f.box)
    if not mask.any():
        warnings.warn("region contains no cell centers of the sampled box")
        return 0.0
    over = np.abs(f.data) > h
    return float(np.count_nonzero(mask & over) * f.box.cell_volume)


def gradient(data, spacing):
    """Derivatives along the last three axes of a (..., nx, ny, nz) array of
    cell samples at the given spacing, stacked just before those axes: of a
    scalar array the (3, nx, ny, nz) gradient, of a velocity array the
    tensor out[i, j] = d u_i / d x_j. Inside the array a derivative reads
    the cell's two neighbours along its axis, at a face the two cells inward
    (second order). So on a slice of a field's data it equals the field's own
    gradient at every cell off the slice's faces and on every face the slice
    shares with the field. Requires >= 3 cells per axis."""
    if any(m < 3 for m in np.shape(data)[-3:]):
        raise ValueError("gradient needs at least 3 cells per axis")
    out = np.empty(np.shape(data)[:-3] + (3,) + np.shape(data)[-3:])
    for j, h in enumerate(spacing):     # np.gradient's uniform formulas, operand for operand
        f, o = (np.moveaxis(x, j - 3, -1) for x in (data, out[..., j, :, :, :]))
        o[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2. * h)
        o[..., 0] = -1.5 / h * f[..., 0] + 2. / h * f[..., 1] + -0.5 / h * f[..., 2]
        o[..., -1] = 0.5 / h * f[..., -3] + -2. / h * f[..., -2] + 1.5 / h * f[..., -1]
    return out

"""Synthetic velocity fields and a periodic pseudo-spectral flow solver.

The generators produce divergence-free model fields with known structure:
rotational point spikes with 1/|x| magnitude decay (the borderline profile
for the weak-L^3 diagnostics), the classical Taylor-Green vortex, and
band-limited random solenoidal noise. ``run_solver`` advances the periodic
incompressible equations with a 2/3-dealiased collocation scheme and a
4-stage explicit step, on the retained 2/3 block of modes only and bit for
bit equal to a full-spectrum loop.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Box3, VectorGrid, SpaceTimeField, _require_finite

__all__ = [
    "SpikeSpec",
    "SolverConfig",
    "SolverRun",
    "SolverError",
    "spike_field",
    "taylor_green",
    "random_solenoidal",
    "run_solver",
    "save_schedule",
    "default_box",
]

TWO_PI = 2.0 * np.pi
_DEALIAS = 2.0 / 3.0   # run_solver keeps modes below this fraction of n/2
MAX_STEPS = 10 ** 6    # SolverConfig rejects a run of more steps


def default_box(n):
    """One period of the solver domain, [0, 2*pi)^3 with n cells per axis."""
    return Box3((0.0, 0.0, 0.0), (TWO_PI, TWO_PI, TWO_PI), (n, n, n))


@dataclass(frozen=True)
class SpikeSpec:
    """Rotational spikes u(x) = sum_i c_i w_i x (x - a_i) / max(|x - a_i|, delta)^2.

    Each term is a rigid rotation about the axis w_i, cut off to a solid-body
    core of radius delta; the magnitude decays like c_i / |x - a_i| outside
    the core, and the field is divergence-free in the continuum.
    """

    centers: tuple
    amplitudes: tuple
    axes: tuple
    delta: float

    def __post_init__(self):
        centers = tuple(tuple(float(v) for v in c) for c in self.centers)
        amps = tuple(float(a) for a in self.amplitudes)
        axes = []
        for w in self.axes:
            w = np.asarray(w, dtype=float)
            _require_finite("spike", axis=w)
            nw = np.linalg.norm(w)
            if nw == 0:
                raise ValueError("spike axis must be nonzero")
            axes.append(tuple(w / nw))
        if not (len(centers) == len(amps) == len(axes)):
            raise ValueError("centers, amplitudes, axes must have equal length")
        _require_finite("spike", amplitudes=amps, delta=self.delta)
        if self.delta <= 0:
            raise ValueError("core radius delta must be positive")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "axes", tuple(axes))
        object.__setattr__(self, "delta", float(self.delta))


def _cross(a, b, out):
    """Cross product of two stacked 3-vectors (components on the leading
    axis), written into out."""
    for i, p, q in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[p], b[q], out=out[i])
        out[i] -= a[q] * b[p]
    return out


def spike_field(spec, box):
    """Sample a SpikeSpec on a box (all centers must lie inside).

    The core radius must resolve to at least 2 cells, otherwise the sampled
    magnitudes misrepresent the 1/r profile near the centers.
    """
    if not np.all(box.contains_points(np.asarray(spec.centers))):
        raise ValueError("all spike centers must lie inside the box")
    if spec.delta < 2.0 * max(box.spacing):
        raise ValueError(
            f"core radius {spec.delta} under-resolved: need >= 2 cell widths "
            f"(= {2.0 * max(box.spacing):.4g})"
        )
    x, y, z = box.center_mesh()
    u = np.zeros((3, *box.n))
    for a, c, w in zip(spec.centers, spec.amplitudes, spec.axes):
        rx, ry, rz = x - a[0], y - a[1], z - a[2]
        r = np.sqrt(rx * rx + ry * ry + rz * rz)
        denom = np.maximum(r, spec.delta) ** 2
        wx, wy, wz = w
        u[0] += c * (wy * rz - wz * ry) / denom
        u[1] += c * (wz * rx - wx * rz) / denom
        u[2] += c * (wx * ry - wy * rx) / denom
    return VectorGrid(box, u)


def taylor_green(box, amplitude=1.0):
    """Taylor-Green vortex sampled at cell centers (solenoidal, mean-free)."""
    x, y, z = box.center_mesh()
    # map box coordinates onto one 2*pi period per axis
    ex, ey, ez = box.extent
    gx = TWO_PI * (x - box.lo[0]) / ex
    gy = TWO_PI * (y - box.lo[1]) / ey
    gz = TWO_PI * (z - box.lo[2]) / ez
    a = float(amplitude)
    return VectorGrid(box, np.stack([
        a * np.sin(gx) * np.cos(gy) * np.cos(gz),
        -a * np.cos(gx) * np.sin(gy) * np.cos(gz),
        np.zeros_like(gx),
    ]))


def _wavenumbers(n):
    k1 = np.fft.fftfreq(n, 1.0 / n)
    kz = np.arange(n // 2 + 1, dtype=float)
    kx, ky, kzr = np.meshgrid(k1, k1, kz, indexing="ij")
    return np.stack([kx, ky, kzr])


def _retained_block(n):
    """The 2/3 mask as a block: its kx (and ky) indices and its kz count."""
    cutoff = _DEALIAS * (n / 2.0)
    return (np.flatnonzero(np.abs(np.fft.fftfreq(n, 1.0 / n)) < cutoff),
            int(np.count_nonzero(np.arange(n // 2 + 1) < cutoff)))


def random_solenoidal(box, seed=0, rms=1.0):
    """Random solenoidal field on the band 2 <= |k| <= 8: curl of white noise
    in Fourier space.

    Taking the curl makes the spectral divergence vanish identically, so the
    field is solenoidal to rounding error at the sampled resolution. Fixed
    seed gives bit-identical output.
    """
    if len(set(box.n)) != 1:
        raise ValueError("random_solenoidal expects equal cell counts per axis")
    n = box.n[0]
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((3, n, n, n))
    # 1-d passes in pocketfft's n-d order, as in run_solver
    ah = np.fft.fft(np.fft.fft(np.fft.rfft(noise, axis=3), axis=1), axis=2)
    k = _wavenumbers(n)
    kk = np.sqrt(np.sum(k * k, axis=0))
    mask = (kk >= 2.0) & (kk <= 8.0)
    ah *= mask
    uh = 1j * _cross(k, ah, np.empty_like(ah))
    uh = np.fft.ifft(np.fft.ifft(uh, axis=1, norm="forward"), axis=2, norm="forward")
    u = np.fft.irfft(uh, n, axis=3, norm="forward") * float(1 / np.longdouble(n ** 3))
    cur = np.sqrt(np.mean(u ** 2) * 3.0)
    if cur > 0:
        u *= rms / cur
    return VectorGrid(box, u)


@dataclass
class SolverConfig:
    """Periodic solver parameters; the domain is one [0, 2*pi)^3 period."""

    n: int = 64
    nu: float = 0.05
    dt: float = 0.01
    t_end: float = 0.5
    initial: str = "taylor_green"   # or "random"
    seed: int = 0
    amplitude: float = 1.0
    save_every: int | None = None   # steps between stored frames (None: ~16 frames)

    def __post_init__(self):
        n = self.n
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TypeError(f"n must be an integer >= 8, got {n!r}")
        if n < 8:
            raise ValueError(f"n must be an integer >= 8, got {n!r}")
        if not all(np.isfinite([self.nu, self.dt, self.t_end, self.amplitude])):
            raise ValueError("nu, dt, t_end and amplitude must be finite")
        if self.nu <= 0 or self.dt <= 0 or self.t_end <= 0:
            raise ValueError("nu, dt, t_end must be positive")
        steps = self.t_end / self.dt
        if steps <= 0.5:   # run_solver's round() gives no step
            raise ValueError(f"t_end / dt = {steps!r} rounds to 0 steps")
        if not np.isfinite(steps) or round(steps) > MAX_STEPS:
            raise ValueError(f"t_end / dt = {steps!r} exceeds {MAX_STEPS} steps")
        if self.initial not in ("taylor_green", "random"):
            raise ValueError(f"unknown initial profile {self.initial!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        s = self.save_every
        if s is not None and (isinstance(s, bool) or not isinstance(s, (int, np.integer))
                              or s < 1):
            raise ValueError(f"save_every must be None or an integer >= 1, got {s!r}")


class SolverError(RuntimeError):
    """Aborted run; .diagnostics carries step, time, and suggested settings."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class SolverRun:
    """Result of run_solver: stored frames plus per-step histories."""

    field: SpaceTimeField | None    # None when run_solver handed its frames to save
    step_times: np.ndarray
    energy: np.ndarray          # int |u|^2 dx per step
    dissipation: np.ndarray     # 2 nu int |grad u|^2 dx per step
    cfl: np.ndarray
    config: SolverConfig

    def energy_balance_residual(self):
        """| E(T) - E(0) + int 2 nu ||grad u||^2 dt | / T, trapezoid in time."""
        diss = np.trapezoid(self.dissipation, self.step_times)
        span = self.step_times[-1] - self.step_times[0]
        return abs(self.energy[-1] - self.energy[0] + diss) / span


def save_schedule(cfg):
    """The steps after which run_solver saves a frame: 0 (the start), every
    save_every-th and the last; and their times, the solver's own step * dt."""
    nsteps = int(round(cfg.t_end / cfg.dt))
    every = cfg.save_every or max(1, int(np.ceil(nsteps / 16)))
    steps = [*range(0, nsteps, every), nsteps]
    return steps, [step * cfg.dt for step in steps]


def run_solver(cfg, save=None):
    """March the incompressible equations; returns a SolverRun. Given save,
    it hands each saved frame's (3, n, n, n) array to save and keeps none.

    Collocation in space (FFT), rotational-form nonlinearity u x curl(u)
    projected onto divergence-free modes, 2/3-type dealiasing mask, and a
    classical 4-stage explicit step. The k=0 mode of the nonlinear term is
    zeroed, so the mean velocity (momentum) is preserved exactly. Aborts
    on CFL > 0.5 or non-finite state.

    The mask is the block X x X x [0, rz) of (kx, ky, kz) indices and the
    state is zero off it, so the state, the stages and k live on the block.
    The transforms are ``numpy.fft``'s 1-d passes in the axis order of
    pocketfft's n-d ``irfftn``/``rfftn``, skipping lines that are zero on
    input or dropped on output: inverse x, y, z, then pocketfft's 1/n^3
    (formed in long double); forward z, x, y. A kept line is the same 1-d
    transform as in the n-d call, and the energy sums scatter the block into
    a zero half-spectrum before the same pairwise ``np.sum``, so frames and
    histories are bit-identical to a full-spectrum loop. Work buffers are
    allocated once per run.
    """
    n, nz = cfg.n, cfg.n // 2 + 1
    box = default_box(n)
    h = TWO_PI / n

    X, rz = _retained_block(n)
    k = _wavenumbers(n)[:, X][:, :, X, :rz]
    k2 = np.sum(k * k, axis=0)
    k2_safe = np.where(k2 == 0, 1.0, k2)
    # Parseval weights of the half-spectrum (the block has no Nyquist plane)
    wz = np.where(np.arange(rz) == 0, 1.0, 2.0)
    wz_k2 = wz * k2
    scale = float(1 / np.longdouble(n ** 3))

    # work buffers; sx, sy, sz and spec stay zero off the block
    sx, tx = np.zeros((2, 3, n, len(X), rz), complex)
    sy, fx = np.zeros((2, 3, n, n, rz), complex)
    sz, fz = np.zeros((2, 3, n, n, nz), complex)
    gx, gy = np.zeros((2, 3, len(X), n, rz), complex)
    u, o, uxo = np.zeros((3, 3, n, n, n))
    curl_h, k1, k2s, k3s, k4s = np.zeros((5,) + k.shape, complex)
    spec = np.zeros((3, n, n, nz))

    # every pass writes into a work buffer through np.fft's out=
    def to_physical(vh, out):
        sx[:, X] = vh
        np.fft.ifft(sx, axis=1, norm="forward", out=tx)
        sy[:, :, X] = tx
        np.fft.ifft(sy, axis=2, norm="forward", out=sz[..., :rz])
        return np.multiply(np.fft.irfft(sz, n, axis=3, norm="forward", out=out),
                           scale, out=out)

    def to_block(r, out):
        np.fft.fft(np.fft.rfft(r, axis=3, out=fz)[..., :rz], axis=1, out=fx)
        np.fft.fft(np.take(fx, X, axis=1, out=gx), axis=2, out=gy)
        return np.take(gy, X, axis=2, out=out)

    def rhs(vh, out, u_=None):   # u_: vh in physical space, if at hand
        u_ = to_physical(vh, u) if u_ is None else u_
        ch = np.multiply(1j, _cross(k, vh, curl_h), out=curl_h)   # vorticity
        wh = to_block(_cross(u_, to_physical(ch, o), uxo), out)
        wh -= k * (np.sum(k * wh, axis=0) / k2_safe)
        wh[:, 0, 0, 0] = 0.0   # momentum-preserving gauge of the projection
        wh -= cfg.nu * k2 * vh
        return wh

    def spectral_sum(w, vh):
        spec[:, X[:, None], X, :rz] = w * np.abs(vh) ** 2
        return float(np.sum(spec) / n ** 3 * h ** 3)

    if cfg.initial == "random":
        u0 = random_solenoidal(box, seed=cfg.seed, rms=cfg.amplitude)
    else:
        u0 = taylor_green(box, cfg.amplitude)
    uh = to_block(u0.data, np.empty_like(k1))

    saved, frame_times = save_schedule(cfg)
    nsteps, saved = saved[-1], set(saved)
    if abs(nsteps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        warnings.warn("t_end is not a multiple of dt; stopping at the nearest step")
    frames = []
    save = save or (lambda a: frames.append(VectorGrid(box, a.copy())))

    save(to_physical(uh, u))   # serves the CFL check, stage 1 and the saved frame
    energy = [spectral_sum(wz, uh)]
    diss = [2.0 * cfg.nu * spectral_sum(wz_k2, uh)]
    step_times = [0.0]
    cfl_hist = []

    dt = cfg.dt
    for step in range(1, nsteps + 1):
        umax = float(np.max(np.abs(u, out=uxo)))
        cfl = umax * dt / h
        cfl_hist.append(cfl)
        if cfl > 0.5:
            raise SolverError(f"CFL {cfl:.3f} exceeds 0.5 at step {step}", {
                "step": step, "t": (step - 1) * dt, "cfl": cfl, "umax": umax,
                "suggested_dt": 0.45 * h / umax})
        rhs(uh, k1, u)
        rhs(uh + 0.5 * dt * k1, k2s)
        rhs(uh + 0.5 * dt * k2s, k3s)
        rhs(uh + dt * k3s, k4s)
        uh = uh + (dt / 6.0) * (k1 + 2.0 * k2s + 2.0 * k3s + k4s)
        if not np.all(np.isfinite(uh.view(float))):
            raise SolverError(f"non-finite state at step {step}",
                              {"step": step, "t": step * dt, "cfl": cfl})
        to_physical(uh, u)
        t = step * dt
        step_times.append(t)
        energy.append(spectral_sum(wz, uh))
        diss.append(2.0 * cfg.nu * spectral_sum(wz_k2, uh))
        if step in saved:
            save(u)

    return SolverRun(field=SpaceTimeField(frame_times, frames) if frames else None,
                     step_times=np.asarray(step_times), energy=np.asarray(energy),
                     dissipation=np.asarray(diss), cfl=np.asarray(cfl_hist), config=cfg)

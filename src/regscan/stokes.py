"""Local pressure projection on a cube and its verification quantities.

estar(F) solves the steady Stokes system -Δv + ∇p = F, div v = 0 on a
cube with zero boundary velocity and mean-zero pressure, and records p alone.
The discretization is a staggered (MAC) grid: pressures at cell centers,
velocity components on their normal faces, which gives exact discrete
div/grad duality and no pressure checkerboard. Each velocity component's
no-slip Laplacian is diagonal in a sine basis, the pressure's Neumann
cell Laplacian in the cosine basis, and the face gradient maps cosine
modes to sine modes one to one. So the conjugate-gradient iteration on
the pressure Schur complement runs on cosine coefficients, a few dense
matrix products per step, and the velocity follows by one exact solve.

On top of the projection sit the derived quantities used by the local
regularity analysis: the pressure triple (∇p_h, ∇p₁, ∇p₂), the interior
harmonicity residual of p_h, the seven-integral local energy balance for
a space-time field, and the mean-value gradient bound for harmonic
candidates. pressure_parts runs the triple's three solves on two threads
when a CPU is spare, else in series; each works on its own buffers, so
every record is bit-identical to a serial solve's.
"""

import functools
import os
import warnings
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .grid import (Ball, Box3, ScalarGrid, VectorGrid, _require_finite, frame_cells,
                   gradient)

__all__ = [
    "StokesError", "StokesSolution", "LocalPressure", "BumpTestFunction",
    "estar", "pressure_parts", "harmonic_residual", "local_energy_residual",
    "check_bump", "harmonic_rigidity_check", "projection_residual",
    "restrict_to_cube", "cube_slices", "vector_laplacian", "convective_divergence",
]


# relative Schur CG residual at which estar stops
CG_TOL = 1e-8


class StokesError(RuntimeError):
    """Solver failure; carries the Schur residual history."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


def _check_domain(box):
    ext = box.extent
    if max(ext) - min(ext) > 1e-9 * max(ext):
        raise ValueError(f"solver domain must be a cube, got {box.n} cells per axis")
    if min(box.n) < 16:
        raise ValueError("solver needs at least 16 cells per axis")


# -- staggered-grid operators -------------------------------------------------
#
# Component a lives on its interior a-faces: an array of shape n with n[a]-1
# along axis a, which holds exactly the unknowns. The zero wall faces are
# not stored; only the stencils that read them (_div_face and _apply_a)
# pad them in.


def _ax(axis, s):
    """Index tuple that takes s along one axis and everything along the rest."""
    return tuple(s if b == axis else slice(None) for b in range(3))


def _avg(x, axis):
    """Midpoint average of neighbouring samples along one axis."""
    return 0.5 * (x[_ax(axis, slice(None, -1))] + x[_ax(axis, slice(1, None))])


def _d2(x, axis):
    """Undivided central second difference along one axis (interior points)."""
    return (x[_ax(axis, slice(None, -2))] - 2.0 * x[_ax(axis, slice(1, -1))]
            + x[_ax(axis, slice(2, None))])


def _with_walls(x, axis):
    """Interior face values padded with the zero wall faces of one axis."""
    return np.pad(x, [(1, 1) if b == axis else (0, 0) for b in range(3)])


def _div_face(f, a, h):
    return np.diff(_with_walls(f, a), axis=a) / h[a]


def _grad_face(p, a, h):
    return np.diff(p, axis=a) / h[a]


def _along(mat, x, axis, out=None):
    """Contract a matrix with x along one axis (one BLAS matmul), into out
    (C-contiguous, of the result's shape) when given."""
    if out is None:
        out = np.empty(x.shape[:axis] + (len(mat),) + x.shape[axis + 1:])
    if axis == 0:
        np.matmul(mat, x.reshape(x.shape[0], -1), out=out.reshape(len(mat), -1))
    elif axis == 1:
        np.matmul(mat, x, out=out)
    else:
        np.matmul(x.reshape(-1, x.shape[2]), mat.T, out=out.reshape(-1, len(mat)))
    return out


def _contract(x, mats):
    """Contract x with mats[b] along every axis b."""
    for b, mat in enumerate(mats):
        x = _along(mat, x, b)
    return x


def _on_axis(v, axis):
    """A vector shaped to broadcast along one axis."""
    return v.reshape([-1 if b == axis else 1 for b in range(3)])


@functools.lru_cache(maxsize=4)
def _basis(n, h):
    """Orthonormal transforms of one grid, built once per (n, h).

    Per axis of m cells: C is the DCT-II of cell values, Q2 the DST-II of
    cell lines with reflected, sign-flipped ghosts, Q1 the DST-I of the m-1
    interior faces, and N = Q2 Cᵀ; each samples its cosine or sine at the
    phase k s / m (s = j + 1/2 on cells, j + 1 on faces) reduced modulo 2
    in integers. The face difference maps cosine mode k to sine mode k:
    Q1 D Cᵀ = [0 | diag(g)], g_k = -2 sin(pi k / 2m) / h. Component a's
    basis Q[a] is Q1 along a, behind an empty mode-0 row so that its modes
    line up with the cosine modes, and Q2 along the other axes. There the
    vector Laplacian is diagonal with denominators lam[a], sums of the
    per-axis eigenvalues (2 - 2 cos(pi k / m)) / h², and ∇(Cᵀp̂) is
    K_a p̂ = g[a] ⊙ (N along the two other axes) p̂, with g_0 = 0.
    """
    C, Q1, Q2, g, eig = [], [], [], [], []
    for a, (m, hb) in enumerate(zip(n, h)):
        k, s2 = np.arange(m), 2 * np.arange(m) + 1

        def trig(fn, kk, ss):
            return np.sqrt(2.0 / m) * fn(
                np.pi * (np.outer(kk, ss) % (4 * m)) / (2 * m))

        C.append(trig(np.cos, k, s2))
        C[-1][0] /= np.sqrt(2.0)
        Q2.append(trig(np.sin, k + 1, s2))
        Q2[-1][-1] /= np.sqrt(2.0)
        Q1.append(trig(np.sin, k[1:], 2 * k[1:]))
        g.append(_on_axis(-2.0 * np.sin(np.pi * k / (2 * m)) / hb, a))
        eig.append((2.0 - 2.0 * np.cos(np.pi * np.arange(m + 1) / m)) / hb ** 2)
    Q1_0 = [np.vstack([np.zeros(len(q)), q]) for q in Q1]
    Q = [[Q1_0[b] if b == a else Q2[b] for b in range(3)] for a in range(3)]
    # cosine modes k = 0.. along a, sine modes k = 1.. along the other axes
    lam = [sum(_on_axis(eig[b][:-1] if b == a else eig[b][1:], b)
               for b in range(3)) for a in range(3)]
    # Ŝ = Σ_a K_aᵀ K_a / lam[a]: one Schur weight w[a] per component on the cosine grid
    return SimpleNamespace(C=C, Q1=Q1, Q2=Q2, N=[q @ c.T for q, c in zip(Q2, C)],
                           Q=Q, g=g, lam=lam, w=[ga ** 2 / la for ga, la in zip(g, lam)])


def _spread(N, p_hat, work=(None,) * 5):
    """p̂ under N along the two axes other than a, for a = 0, 1, 2. Given
    five work buffers, the result is work[2:5] and nothing is allocated."""
    y1, y2 = _along(N[1], p_hat, 1, work[0]), _along(N[2], p_hat, 2, work[1])
    return [_along(N[2], y1, 2, work[2]), _along(N[0], y2, 0, work[3]),
            _along(N[0], y1, 0, work[4])]


def _gather(N, z, work=(None,) * 5):
    """Adjoint of _spread, summed over the three components. Given the
    spread's work buffers, with z = work[2:5], the result is work[2]: each
    buffer is written only after the last read of what it held."""
    t = _along(N[2].T, z[0], 2, work[0])
    t += _along(N[0].T, z[2], 0, work[1])
    out = _along(N[1].T, t, 1, work[2])
    out += _along(N[2].T, _along(N[0].T, z[1], 0, work[4]), 2, work[3])
    return out


def _apply_a(f, a, h):
    """Forward no-slip vector Laplacian of component a at its interior faces
    (for residual reporting); the wall faces are constraints, not equations."""
    acc = 0
    for b in range(3):
        # the zero wall faces close the face lines; cell lines reflect
        # with a sign flip across the walls
        ext = _with_walls(f, b) if b == a else np.concatenate(
            [-f[_ax(b, slice(0, 1))], f, -f[_ax(b, slice(-1, None))]], axis=b)
        acc += _d2(ext, b) / h[b] ** 2
    return -acc


@dataclass
class StokesSolution:
    """Mean-zero pressure of one projection, with its solve's residuals and CG history."""

    p: ScalarGrid
    residuals: dict
    iterations: int
    residual_history: list = field(default_factory=list, repr=False)

    @property
    def grad_p(self):
        """Cell-centred ∇p, derived on every read so a held record keeps p alone."""
        return VectorGrid(self.p.box, gradient(self.p.data, self.p.box.spacing))


def estar(F):
    """Gradient part of F on a cube: solve the zero-boundary steady Stokes
    system and return its StokesSolution, whose grad_p is ∇p.

    CG runs on the cosine coefficients p̂ of the pressure (see _basis),
    where the Schur complement -div A⁻¹ ∇ is Σ_a K_aᵀ K_a / lam[a], until
    the relative residual falls to CG_TOL. The basis is orthonormal, so
    the residual norms are those of cell space.
    The face velocities serve the momentum and divergence residuals alone.

    Accepts a cell-centered VectorGrid; a StokesSolution may be passed to
    reapply the projection to its own gradient without the cell/face
    transfer loss (used by the projection-property tests).
    """
    reapply = isinstance(F, StokesSolution)
    box = F.p.box if reapply else F.box
    _check_domain(box)
    n, h = box.n, box.spacing

    def face(a):    # interior face i sits between cells i and i+1; rebuilt where read
        return _grad_face(F.p.data, a, h) if reapply else _avg(F.data[a], a)

    B = _basis(n, h)
    cap = 10 * max(n)

    # the Schur apply and the CG updates write into buffers allocated once
    # per solve, in the order and with the operands of the plain expressions
    work = [np.empty(n) for _ in range(5)]
    tmp = np.empty(n)

    def schur(p_hat):
        z = _spread(B.N, p_hat, work)
        for w, x in zip(B.w, z):
            x *= w
        return _gather(B.N, z, work)

    fnorm = np.sqrt(sum(float((face(a) ** 2).sum()) for a in range(3)))
    f_hat = [_contract(face(a), B.Q[a]) for a in range(3)]
    # Σ_a K_aᵀ f̂_a / lam[a]; its (0, 0, 0) mode, the mean of p, is zero
    rhs = _gather(B.N, [np.divide(np.multiply(g, f, out=z), lam, out=z)
                        for g, f, lam, z in zip(B.g, f_hat, B.lam, work[2:])], work)
    bnorm = float(np.linalg.norm(rhs))

    p_hat = np.zeros(box.n)
    history = []
    if bnorm > 0.0:
        r = rhs.copy()      # rhs is a work buffer, which the Schur apply overwrites
        d = r.copy()
        rs = float((r * r).sum())
        history.append(1.0)
        while np.sqrt(rs) > CG_TOL * bnorm:
            if len(history) > cap:
                raise StokesError(f"Schur iteration failed to reach {CG_TOL} "
                                  f"within {cap} steps", history)
            q = schur(d)
            denom = float(np.multiply(d, q, out=tmp).sum())
            if not np.isfinite(denom) or denom <= 0.0:
                # round-off breakdown: the direction carries no energy left
                raise StokesError(f"Schur iteration stagnated before reaching "
                                  f"{CG_TOL}", history)
            alpha = rs / denom
            p_hat += np.multiply(d, alpha, out=tmp)
            r -= np.multiply(q, alpha, out=tmp)
            rs_new = float(np.multiply(r, r, out=tmp).sum())
            history.append(np.sqrt(rs_new) / bnorm)
            d *= rs_new / rs    # d = r + β d
            d += r
            rs = rs_new
        del r, d, tmp       # so that the residuals below run beside none of them

    p = _contract(p_hat, [c.T for c in B.C])
    p -= p.mean()
    # one face velocity component at a time, the residuals summed in component order
    mom, div = 0.0, 0
    for a, x in enumerate(_spread(B.N, p_hat, work)):
        v = _contract((f_hat.pop(0) - B.g[a] * x) / B.lam[a], [q.T for q in B.Q[a]])
        mom += float(((_apply_a(v, a, h) + _grad_face(p, a, h) - face(a)) ** 2).sum())
        div += _div_face(v, a, h)
    residuals = {"momentum": np.sqrt(mom) / fnorm if fnorm > 0 else 0.0,
                 "divergence": float(np.linalg.norm(div)) / (bnorm if bnorm > 0 else 1.0),
                 "mean_p": abs(float(p.mean()))}

    return StokesSolution(ScalarGrid(box, p), residuals,
                          max(len(history) - 1, 0), history)


def projection_residual(sol):
    """Face-level ‖estar(∇p) − ∇p‖ / ‖∇p‖ of a solution's own gradient:
    reapplying the projection isolates solver error from grid transfer."""
    h = sol.p.box.spacing
    grad, again = ([_grad_face(s.p.data, a, h) for a in range(3)] for s in (sol, estar(sol)))
    num = np.sqrt(sum(float(((a - b) ** 2).sum()) for a, b in zip(again, grad)))
    den = np.sqrt(sum(float((g ** 2).sum()) for g in grad))
    return num / den if den > 0 else 0.0


# -- discrete right-hand sides -----------------------------------------------


def _second_derivative(data, axis, h):
    """Second difference, second-order one-sided at the walls."""
    out = np.empty_like(data)
    out[_ax(axis, slice(1, -1))] = _d2(data, axis)

    def line(idx):
        return data[_ax(axis, idx)]

    out[_ax(axis, 0)] = 2 * line(0) - 5 * line(1) + 4 * line(2) - line(3)
    out[_ax(axis, -1)] = 2 * line(-1) - 5 * line(-2) + 4 * line(-3) - line(-4)
    return out / h[axis] ** 2


def _laplacian(x, h):
    return sum(_second_derivative(x, axis, h) for axis in range(3))


def vector_laplacian(v):
    """Componentwise 7-point Laplacian with one-sided wall stencils."""
    return VectorGrid(v.box, [_laplacian(c, v.box.spacing) for c in v.data])


def convective_divergence(u):
    """∇·(u⊗u) by divergence of face-interpolated products."""
    h = u.box.spacing
    out = np.zeros(u.data.shape)
    for a in range(3):
        for b in range(3):
            prod = u.data[a] * u.data[b]
            # wall fluxes extrapolate linearly from the two nearest cells
            lo = (1.5 * prod[_ax(b, slice(0, 1))]
                  - 0.5 * prod[_ax(b, slice(1, 2))])
            hi = (1.5 * prod[_ax(b, slice(-1, None))]
                  - 0.5 * prod[_ax(b, slice(-2, -1))])
            flux = np.concatenate([lo, _avg(prod, b), hi], axis=b)
            out[a] += np.diff(flux, axis=b) / h[b]
    return VectorGrid(u.box, out)


@dataclass
class LocalPressure:
    """The pressure triple of the local decomposition, as the solutions
    keyed "ph", "p1" and "p2": p_h solves with forcing -u (so it absorbs
    the harmonic part), p₁ with -∇·(u⊗u) (convective pressure), p₂ with Δu
    (viscous pressure); all on the same cube with mean-zero gauge. Each
    solution's grad_p is its pressure gradient.
    """

    solutions: dict


def _warn_if_compressible(u, what, interior=False):
    """Warn when rms |div u| exceeds a tenth of rms |∇u|: `what` assumes
    div u ≈ 0. interior=True skips the one-sided wall layer of div u."""
    gu = gradient(u.data, u.box.spacing)
    divu = gu[0, 0] + gu[1, 1] + gu[2, 2]
    if interior:
        divu = divu[1:-1, 1:-1, 1:-1]
    rms_div = float(np.sqrt(np.mean(divu ** 2)))
    rms_grad = float(np.sqrt(np.mean(gu ** 2)))
    if rms_grad > 0 and rms_div > 0.1 * rms_grad:
        warnings.warn(
            f"input is far from solenoidal (|div u| rms {rms_div:.3e}); "
            f"{what} assumes div u ≈ 0"
        )


def _now(fn, *args):
    """fn(*args) run here and now, its outcome kept in a Future as a pool keeps it."""
    out = Future()
    try:
        out.set_result(fn(*args))
    except Exception as exc:
        out.set_exception(exc)
    return out


def _solver_pool():
    """submit of one worker thread if the process may use more CPUs than it runs
    threads (numpy's BLAS starts one per CPU unless limited to one), else _now."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 1
    return ThreadPoolExecutor(1, "regscan-stokes").submit if (cpus or 1) > threads else _now


_submit = _solver_pool()      # the worker starts at the first call, not on import
if hasattr(os, "register_at_fork"):     # a forked child has no copy of the worker
    os.register_at_fork(after_in_child=lambda: globals().update(_submit=_solver_pool()))


def pressure_parts(u):
    """The LocalPressure of u on its cube. The three solves share no state:
    ph and p2 run on the worker thread while this thread solves p1 (all here
    without a spare CPU). Each applies the same operations to its own buffers,
    so every record is bit-identical to a serial solve's. A failed solve's
    error is raised once all three have finished."""
    _warn_if_compressible(u, "the pressure decomposition")
    _basis(u.box.n, u.box.spacing)      # built here, so the worker only reads the cache
    jobs = {"ph": _submit(estar, VectorGrid(u.box, -u.data)),
            "p2": _submit(estar, vector_laplacian(u))}
    jobs["p1"] = _now(estar, VectorGrid(u.box, -convective_divergence(u).data))
    wait(jobs.values())
    return LocalPressure({k: jobs[k].result() for k in ("ph", "p1", "p2")})


def harmonic_residual(ph_solution, u=None):
    """Interior 7-point Laplacian residual of the pressure, relative to ‖p‖."""
    p = ph_solution.p.data
    inner = _laplacian(p, ph_solution.p.box.spacing)[1:-1, 1:-1, 1:-1]
    denom = float(np.sqrt(np.mean(p[1:-1, 1:-1, 1:-1] ** 2)))
    if denom == 0.0:
        return 0.0
    if u is not None:
        # relative check: smooth solenoidal fields carry O(h^2) discrete
        # divergence, so compare against the gradient magnitude
        _warn_if_compressible(u, "harmonicity of the pressure", interior=True)
    return float(np.sqrt(np.mean(inner ** 2))) / denom


# -- local energy balance ------------------------------------------------------


@dataclass(frozen=True)
class BumpTestFunction:
    """C∞ space-time bump: exp(1 - 1/(1-s)) in |x-c|²/R² times the same
    profile in (t-t_c)²/t_r²; vanishes identically outside the ball/interval.

    All derivatives used by the energy balance are analytic, so the test
    function contributes no differencing error.
    """

    center: tuple
    radius: float
    t_center: float
    t_radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        _require_finite("test function", center=self.center, radius=self.radius,
                        t_center=self.t_center, t_radius=self.t_radius)
        if not (self.radius > 0 and self.t_radius > 0):
            raise ValueError("test function radius and t_radius must be positive")

    @staticmethod
    def _bump(s):
        """ψ(s) = exp(w(s)), w(s) = 1 - 1/(1-s), with w' and w'' (all zero
        for s ≥ 1), on an array s."""
        psi, wp, wpp = np.zeros((3,) + s.shape)
        inside = s < 1.0 - 1e-12
        d = 1.0 - s[inside]
        psi[inside] = np.exp(1.0 - 1.0 / d)
        wp[inside] = -1.0 / d ** 2
        wpp[inside] = -2.0 / d ** 3
        return psi, wp, wpp

    def _time(self, t):
        """The profile triple at (t-t_c)²/t_r², as floats."""
        q = (np.asarray(t, dtype=float) - self.t_center) ** 2 / self.t_radius ** 2
        return [float(x[0]) for x in self._bump(np.atleast_1d(q))]

    def _at(self, mesh):
        """φ, ∇φ, Δφ and ∂_tφ on mesh as a function of t; the spatial
        profile is evaluated once."""
        dx = [mesh[a] - self.center[a] for a in range(3)]
        r2 = self.radius ** 2
        s = (dx[0] ** 2 + dx[1] ** 2 + dx[2] ** 2) / r2
        psi, wp, wpp = self._bump(s)
        gcoef = psi * wp * (2.0 / r2)
        lap = ((wp ** 2 + wpp) * (4.0 * s / r2) + wp * (6.0 / r2)) * psi

        def at(t):
            tau, wp_t, _ = self._time(t)
            dq = 2.0 * (t - self.t_center) / self.t_radius ** 2
            coef = gcoef * tau
            return (psi * tau, np.array([coef * d for d in dx]), lap * tau,
                    psi * (tau * wp_t * dq))
        return at


def cube_slices(box, cube):
    """Snap a Cube region onto the cell lattice of a field's box: the index
    slices and the box of the sub-grid, checked as a solver domain."""
    corner, side, h, lo = cube.corner, cube.side, box.spacing, box.lo
    i0 = [int(round((corner[a] - lo[a]) / h[a])) for a in range(3)]
    i1 = [int(round((corner[a] + side - lo[a]) / h[a])) for a in range(3)]
    if min(i0) < 0 or any(j > m for j, m in zip(i1, box.n)):
        raise ValueError(f"analysis cube at {tuple(corner)} with side {side} "
                         f"leaves the field's box {box.lo} to {box.hi}")
    if any(j - i < 16 for i, j in zip(i0, i1)):
        raise ValueError("analysis cube must span at least 16 cells per axis")
    sub_box = Box3(tuple(lo[a] + i0[a] * h[a] for a in range(3)),
                   tuple(lo[a] + i1[a] * h[a] for a in range(3)),
                   tuple(j - i for i, j in zip(i0, i1)))
    _check_domain(sub_box)      # axes round apart, so their counts may differ
    return tuple(slice(i, j) for i, j in zip(i0, i1)), sub_box


def restrict_to_cube(frame, cube):
    """Extract the sub-grid of a frame covered by a Cube region."""
    slices, sub_box = cube_slices(frame.box, cube)
    # a copy, so that the sub-cube is C-contiguous
    return VectorGrid(sub_box, np.array(frame.data[(slice(None), *slices)]))


def check_bump(box, times, cube, phi):
    """Check a test function against a field's box and frame times (a file's
    header will do) and an analysis cube: at least 3 frames, the bump's
    support inside the cube and after the first frame, a frame inside its
    time support, and at least 4 cells and 2 frame steps across it. The
    balance runs up to s, the last frame's time. Returns the cube's slices
    and box.
    """
    slices, sub_box = cube_slices(box, cube)
    if len(times) < 3:
        raise ValueError("need at least 3 frames up to the evaluation time")
    r = phi.radius
    for a in range(3):
        if (phi.center[a] - r < sub_box.lo[a] - 1e-12
                or phi.center[a] + r > sub_box.hi[a] + 1e-12):
            raise ValueError("test function support leaves the analysis cube")
    if phi.t_center - phi.t_radius < times[0] - 1e-12:
        raise ValueError("test function support starts before the field")
    if not any(abs(t - phi.t_center) < phi.t_radius for t in times):
        raise ValueError(f"test function time support ({phi.t_center - phi.t_radius:g}, "
                         f"{phi.t_center + phi.t_radius:g}) holds no frame up to "
                         f"s={times[-1]:g}")
    if r < 4 * max(sub_box.spacing):
        raise ValueError("test function is unresolved: radius < 4 cells")
    if phi.t_radius < 2 * np.diff(times).max():
        raise ValueError("test function is unresolved in time")
    return slices, sub_box


def local_energy_residual(f, cube, phi, pressures=None, nu=1.0):
    """Evaluate the seven integrals of the localized energy balance up to s,
    the time of f's last frame (pass the frames up to s for an earlier s).

    For v = u + ∇p_h the balance reads::

        ∫|v(s)|²φ(s) + 2ν∫∫|∇v|²φ
          ≤ ∫∫|v|²(∂_t+νΔ)φ + ∫∫|v|²(v-∇p_h)·∇φ
            + 2∫∫(v⊗v - v⊗∇p_h : ∇²p_h)φ + 2∫∫(p₁+νp₂)v·∇φ

    with equality for smooth solutions, so slack = rhs - lhs measures the
    discretization error of a resolved run. nu is the viscosity the field
    evolved under; it multiplies the dissipation, the Δφ term, and p₂
    (the part of the local pressure driven by Δu). Time integrals use the
    frame trapezoid rule; φ and its derivatives are analytic.

    f is a SpaceTimeField or a FieldWindow of the cube. pressures may carry
    LocalPressure records solved before, to amortize solves across several
    test functions: a list one per frame, a dict by frame index (the frames
    it lacks are solved here).
    """
    if not (np.isfinite(nu) and nu > 0):
        raise ValueError(f"viscosity must be finite and positive, got {nu}")
    times = f.times
    slices, sub_box = check_bump(f.box, times, cube, phi)
    phi_at = phi._at(sub_box.center_mesh())

    known = pressures if isinstance(pressures, dict) else dict(enumerate(pressures or ()))
    vol = sub_box.cell_volume
    rows, boundary = [], 0.0
    for i, t in enumerate(times):
        if phi._time(t)[0] == 0.0:
            # φ(·, t) vanishes identically, and so does every integrand
            rows.append([0.0] * 6)
            continue
        phi_val, phi_grad, phi_lap, phi_dt = phi_at(t)
        u = VectorGrid(sub_box, np.array(frame_cells(f, i, slices)))
        lp = known[i] if i in known else pressure_parts(u)
        uarr, gph = u.data, lp.solutions["ph"].grad_p.data
        varr = uarr + gph
        v2 = (varr ** 2).sum(axis=0)
        grad2 = (gradient(varr, sub_box.spacing) ** 2).sum(axis=(0, 1))
        hess = gradient(gph, sub_box.spacing)
        contraction = sum(varr[a] * uarr[b] * hess[a][b]
                          for a in range(3) for b in range(3))
        del hess    # like ∇v, not held until the next frame replaces it
        psum = lp.solutions["p1"].p.data + nu * lp.solutions["p2"].p.data
        rows.append([float(x.sum()) * vol for x in (
            grad2 * phi_val, v2 * phi_dt, v2 * phi_lap,
            v2 * (uarr * phi_grad).sum(axis=0), contraction * phi_val,
            psum * (varr * phi_grad).sum(axis=0))])
        if i == len(times) - 1:
            boundary = float((v2 * phi_val).sum()) * vol

    grad, phi_t, phi_lap, transport, hessian, pressure = (
        float(np.trapezoid(col, times)) for col in np.array(rows).T)
    terms = {"boundary": boundary, "grad": 2.0 * nu * grad, "phi_t": phi_t,
             "phi_lap": nu * phi_lap, "transport": transport,
             "hessian": 2.0 * hessian, "pressure": 2.0 * pressure}
    lhs = terms["boundary"] + terms["grad"]
    rhs = (terms["phi_t"] + terms["phi_lap"] + terms["transport"]
           + terms["hessian"] + terms["pressure"])
    scale = max(abs(x) for x in terms.values())
    return {
        "lhs": lhs,
        "rhs": rhs,
        "slack": rhs - lhs,
        "slack_relative": (rhs - lhs) / scale if scale > 0 else 0.0,
        "terms": terms,
        "s": float(times[-1]),
        "frames_used": len(times),
    }


# -- harmonic rigidity ----------------------------------------------------------


def harmonic_rigidity_check(f, radii, center=None, M=None):
    """Mean-value gradient bound |∇f(x₀)| ≤ (12/π) R⁻⁴ ∫_{B_R}|f| over radii.

    The constant comes from averaging the spherical mean-value identity for
    ∇f over shells in (R/2, R). When M is given, the layer-cake split at
    height H = 1/R adds the closed-form bound
    (12/π)((4π/3) + M³/2) R⁻², which decays like R⁻² whenever the weak-L³
    norm is finite. Reports both bounds per radius, the measured |∇f(x₀)|,
    fitted log-log decay slopes, and the radius where the direct bound
    stops decaying (the crossover of the negative controls).
    """
    box = f.box
    if center is None:
        center = tuple(0.5 * (lo + hi) for lo, hi in zip(box.lo, box.hi))
    centers = box.centers()
    i0 = tuple(int(np.argmin(np.abs(c - x))) for c, x in zip(centers, center))
    if min(i0) < 1 or any(i >= nn - 1 for i, nn in zip(i0, box.n)):
        raise ValueError("center too close to the box boundary")

    grad = np.empty(3)
    for a in range(3):
        step = np.eye(3, dtype=int)[a]
        grad[a] = ((f.data[tuple(i0 + step)] - f.data[tuple(i0 - step)])
                   / (2 * box.spacing[a]))
    grad_norm = float(np.linalg.norm(grad))
    x0 = tuple(centers[a][i0[a]] for a in range(3))

    const = 12.0 / np.pi
    records = []
    for R in sorted(radii):
        if R < 3 * max(box.spacing):
            raise ValueError("radius below 3 cells cannot be integrated")
        mask = Ball(x0, R).mask(box)
        integral = float(np.abs(f.data[mask]).sum()) * box.cell_volume
        direct = const * integral / R ** 4
        rec = {
            "R": float(R),
            "integral": integral,
            "bound_direct": direct,
            "grad_norm": grad_norm,
            "bound_holds": grad_norm <= direct * (1 + 1e-9),
        }
        if M is not None:
            rec["bound_split"] = const * (4 * np.pi / 3 + M ** 3 / 2.0) / R ** 2
        records.append(rec)

    rr = np.array([r["R"] for r in records])
    bd = np.array([r["bound_direct"] for r in records])
    slope_direct = float(np.polyfit(np.log(rr), np.log(bd), 1)[0])
    out = {
        "records": records,
        "grad_norm": grad_norm,
        "slope_direct": slope_direct,
        "crossover_R": float(rr[int(np.argmin(bd))]),
    }
    if M is not None:
        bs = np.array([r["bound_split"] for r in records])
        out["slope_split"] = float(np.polyfit(np.log(rr), np.log(bs), 1)[0])
    return out

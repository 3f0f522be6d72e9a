"""Local pressure projection on a cube and its verification quantities.

estar(F) solves the steady Stokes system -Δv + ∇p = F, div v = 0 on a
cube with zero boundary velocity and mean-zero pressure, and returns ∇p.
The discretization is a staggered (MAC) grid: pressures at cell centers,
velocity components on their normal faces, which gives exact discrete
div/grad duality and no pressure checkerboard. Each velocity component's
Laplacian block separates per axis into fixed-zero (face) and reflected
(cell-line) second differences, both diagonal in sine bases (dense matrix
products), so the inner vector solves are exact; an outer conjugate-gradient
iteration on the pressure Schur complement enforces incompressibility.

On top of the projection sit the derived quantities used by the local
regularity analysis: the pressure triple (∇p_h, ∇p₁, ∇p₂), the interior
harmonicity residual of p_h, the seven-integral local energy balance for
a space-time field, and the mean-value gradient bound for harmonic
candidates.
"""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import (Ball, Box3, ScalarGrid, VectorGrid, _require_finite,
                   gradient, scalar_gradient)

__all__ = [
    "StokesError",
    "StokesSolution",
    "LocalPressure",
    "BumpTestFunction",
    "estar",
    "pressure_parts",
    "harmonic_residual",
    "local_energy_residual",
    "harmonic_rigidity_check",
    "projection_residual",
    "restrict_to_cube",
    "vector_laplacian",
    "convective_divergence",
]


class StokesError(RuntimeError):
    """Solver failure; carries the Schur residual history."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


def _check_domain(box):
    ext = box.extent
    if max(ext) - min(ext) > 1e-9 * max(ext):
        raise ValueError("solver domain must be a cube")
    if min(box.n) < 16:
        raise ValueError("solver needs at least 16 cells per axis")


# -- staggered-grid operators -------------------------------------------------
#
# Component a lives on its interior a-faces: an array of shape n with n[a]-1
# along axis a, which holds exactly the unknowns. The zero wall faces are
# not stored; only the stencils that read them (_div_faces,
# _faces_to_centers, _apply_a) pad them in.


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


def _to_faces(v):
    # interior face i sits between cells i and i+1
    return [_avg(c.data, a) for a, c in enumerate(v.components)]


def _faces_to_centers(faces):
    return [_avg(_with_walls(f, a), a) for a, f in enumerate(faces)]


def _div_faces(faces, h):
    return sum(np.diff(_with_walls(faces[a], a), axis=a) / h[a] for a in range(3))


def _grad_to_faces(p, h):
    return [np.diff(p, axis=a) / h[a] for a in range(3)]


def _along(mat, x, axis):
    """Contract a square matrix with x along one axis (one BLAS matmul)."""
    if axis == 0:
        return (mat @ x.reshape(x.shape[0], -1)).reshape(x.shape)
    if axis == 1:
        return np.matmul(mat, x)
    return (x.reshape(-1, x.shape[2]) @ mat.T).reshape(x.shape)


class _ComponentSolver:
    """Exact inverse of the no-slip vector Laplacian, one velocity component.

    Along the component's own axis the unknowns are interior faces with
    zero wall values (type-I sine basis, n-1 points); along the other two
    axes they are cell lines with reflected, sign-flipped ghosts (type-II
    sine basis, n points). Both second-difference operators have
    eigenvalues (2 - 2 cos(pi k / n)) / h^2, k = 1..m, so a solve is three
    forward contractions, one division and three inverse contractions
    (fast diagonalization). The forward matrix samples 2 sin(pi k s / n)
    at s = j + 1 (faces) or s = j + 1/2 (cell lines); its inverse is the
    transpose over 2n with the type-II top mode halved.
    """

    def __init__(self, a, n, h):
        self.fwd, self.inv, lam = [], [], []
        for b in range(3):
            m = n[b] - 1 if b == a else n[b]
            k = np.arange(1, m + 1)
            s2 = 2 * k if b == a else 2 * k - 1    # twice the positions s
            # phase k s / n reduced modulo 2 in integers: sines on [0, 2 pi)
            fwd = 2.0 * np.sin(np.pi * (np.outer(k, s2) % (4 * n[b])) / (2 * n[b]))
            self.fwd.append(fwd)
            self.inv.append(fwd.T * (np.where(k < n[b], 1.0, 0.5) / (2 * n[b])))
            lam.append((2.0 - 2.0 * np.cos(np.pi * k / n[b])) / h[b] ** 2)
        self.denom = (
            lam[0][:, None, None] + lam[1][None, :, None] + lam[2][None, None, :]
        )

    def solve(self, x):
        for b in range(3):
            x = _along(self.fwd[b], x, b)
        x = x / self.denom
        for b in range(3):
            x = _along(self.inv[b], x, b)
        return x


@functools.lru_cache(maxsize=4)
def _solvers(n, h):
    """The three component solvers of one grid, built once per (n, h)."""
    return tuple(_ComponentSolver(a, n, h) for a in range(3))


def _apply_ainv(faces, solvers):
    return [solvers[a].solve(f) for a, f in enumerate(faces)]


def _apply_a(faces, h):
    """Forward no-slip vector Laplacian at the interior faces (for residual
    reporting); the wall faces are constraints, not equations."""
    out = []
    for a, f in enumerate(faces):
        acc = 0
        for b in range(3):
            if b == a:
                # the zero wall faces close the face lines
                acc += _d2(_with_walls(f, b), b) / h[b] ** 2
            else:
                # cell lines reflect with a sign flip across the walls
                padded = np.concatenate(
                    [-f[_ax(b, slice(0, 1))], f, -f[_ax(b, slice(-1, None))]],
                    axis=b)
                acc += _d2(padded, b) / h[b] ** 2
        out.append(-acc)
    return out


@dataclass
class StokesSolution:
    """Velocity, mean-zero pressure and its gradient from one projection."""

    v: VectorGrid
    p: ScalarGrid
    grad_p: VectorGrid
    residuals: dict
    iterations: int
    residual_history: list = field(default_factory=list, repr=False)

    @property
    def _face_grad(self):
        """∇p on the interior faces: the projection's own gradient."""
        return _grad_to_faces(self.p.data, self.p.box.spacing)


def estar(F, tol=1e-8):
    """Gradient part of F on a cube: solve the zero-boundary steady Stokes
    system and return ∇p (plus the full solution record).

    Accepts a cell-centered VectorGrid; a StokesSolution may be passed to
    reapply the projection to its own gradient without the cell/face
    transfer loss (used by the projection-property tests).
    """
    reapply = isinstance(F, StokesSolution)
    box = F.p.box if reapply else F.box
    _check_domain(box)
    if not (0 < tol < 1):
        # CG starts at relative residual 1: tol >= 1 or NaN would skip the solve
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    n, h = box.n, box.spacing
    faces = F._face_grad if reapply else _to_faces(F)

    solvers = _solvers(n, h)
    cap = 10 * max(n)

    def schur(p):
        return -_div_faces(_apply_ainv(_grad_to_faces(p, h), solvers), h)

    aif = _apply_ainv(faces, solvers)
    rhs = -_div_faces(aif, h)
    rhs -= rhs.mean()
    bnorm = float(np.linalg.norm(rhs))

    p = np.zeros(box.n)
    history = []
    if bnorm > 0.0:
        r = rhs.copy()
        d = r.copy()
        rs = float((r * r).sum())
        history.append(1.0)
        while np.sqrt(rs) > tol * bnorm:
            if len(history) > cap:
                raise StokesError(f"Schur iteration failed to reach {tol} "
                                  f"within {cap} steps", history)
            q = schur(d)
            denom = float((d * q).sum())
            if not np.isfinite(denom) or denom <= 0.0:
                # round-off breakdown: the direction carries no energy left
                raise StokesError(f"Schur iteration stagnated before reaching "
                                  f"{tol}", history)
            alpha = rs / denom
            p += alpha * d
            r -= alpha * q
            rs_new = float((r * r).sum())
            history.append(np.sqrt(rs_new) / bnorm)
            d = r + (rs_new / rs) * d
            rs = rs_new
        p -= p.mean()

    gfaces = _grad_to_faces(p, h)
    vfaces = _apply_ainv([faces[a] - gfaces[a] for a in range(3)], solvers)

    av = _apply_a(vfaces, h)
    fnorm = np.sqrt(sum(float((f ** 2).sum()) for f in faces))
    mom = np.sqrt(sum(float(((av[a] + gfaces[a] - faces[a]) ** 2).sum())
                      for a in range(3)))
    divv = float(np.linalg.norm(_div_faces(vfaces, h)))
    residuals = {
        "momentum": mom / fnorm if fnorm > 0 else 0.0,
        "divergence": divv / bnorm if bnorm > 0 else divv,
        "mean_p": abs(float(p.mean())),
    }

    p_grid = ScalarGrid(box, p)
    return StokesSolution(
        v=VectorGrid.from_array(box, np.array(_faces_to_centers(vfaces))),
        p=p_grid,
        grad_p=VectorGrid.from_array(box, scalar_gradient(p_grid)),
        residuals=residuals,
        iterations=max(len(history) - 1, 0),
        residual_history=history,
    )


def projection_residual(sol, tol=1e-8):
    """Face-level ‖estar(∇p) − ∇p‖ / ‖∇p‖ of a solution's own gradient:
    reapplying the projection isolates solver error from grid transfer."""
    grad, again = sol._face_grad, estar(sol, tol)._face_grad
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


def vector_laplacian(v):
    """Componentwise 7-point Laplacian with one-sided wall stencils."""
    h = v.box.spacing
    data = np.array([
        sum(_second_derivative(c.data, axis, h) for axis in range(3))
        for c in v.components
    ])
    return VectorGrid.from_array(v.box, data)


def convective_divergence(u):
    """∇·(u⊗u) by divergence of face-interpolated products."""
    h = u.box.spacing
    comps = [c.data for c in u.components]
    out = np.zeros((3,) + comps[0].shape)
    for a in range(3):
        for b in range(3):
            prod = comps[a] * comps[b]
            # wall fluxes extrapolate linearly from the two nearest cells
            lo = (1.5 * prod[_ax(b, slice(0, 1))]
                  - 0.5 * prod[_ax(b, slice(1, 2))])
            hi = (1.5 * prod[_ax(b, slice(-1, None))]
                  - 0.5 * prod[_ax(b, slice(-2, -1))])
            flux = np.concatenate([lo, _avg(prod, b), hi], axis=b)
            out[a] += np.diff(flux, axis=b) / h[b]
    return VectorGrid.from_array(u.box, out)


@dataclass
class LocalPressure:
    """The pressure-gradient triple of the local decomposition.

    grad_ph solves with forcing -u (so p_h absorbs the harmonic part),
    grad_p1 with -∇·(u⊗u) (convective pressure), grad_p2 with Δu
    (viscous pressure); all on the same cube with mean-zero gauge. The
    gradients read through to the solutions keyed "ph", "p1" and "p2".
    """

    solutions: dict

    grad_ph = property(lambda self: self.solutions["ph"].grad_p)
    grad_p1 = property(lambda self: self.solutions["p1"].grad_p)
    grad_p2 = property(lambda self: self.solutions["p2"].grad_p)


def _warn_if_compressible(u, what, interior=False):
    """Warn when rms |div u| exceeds a tenth of rms |∇u|: `what` assumes
    div u ≈ 0. interior=True skips the one-sided wall layer of div u."""
    gu = gradient(u)
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


def pressure_parts(u, tol=1e-8):
    _warn_if_compressible(u, "the pressure decomposition")
    forcing = {"ph": -u.stack(), "p1": -convective_divergence(u).stack(),
               "p2": vector_laplacian(u).stack()}
    return LocalPressure({k: estar(VectorGrid.from_array(u.box, f), tol)
                          for k, f in forcing.items()})


def harmonic_residual(ph_solution, u=None):
    """Interior 7-point Laplacian residual of the pressure, relative to ‖p‖."""
    p = ph_solution.p.data
    h = ph_solution.p.box.spacing
    inner = sum(_second_derivative(p, axis, h)
                for axis in range(3))[1:-1, 1:-1, 1:-1]
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

    def _space(self, mesh):
        """s = |x-c|²/R² and the profile triple at s."""
        c = self.center
        s = ((mesh[0] - c[0]) ** 2 + (mesh[1] - c[1]) ** 2
             + (mesh[2] - c[2]) ** 2) / self.radius ** 2
        return (s,) + self._bump(s)

    def _time(self, t):
        """The profile triple at (t-t_c)²/t_r², as floats."""
        q = (np.asarray(t, dtype=float) - self.t_center) ** 2 / self.t_radius ** 2
        return [float(x[0]) for x in self._bump(np.atleast_1d(q))]

    def value(self, mesh, t):
        return self._space(mesh)[1] * self._time(t)[0]

    def grad(self, mesh, t):
        _, psi, wp, _ = self._space(mesh)
        coef = psi * wp * (2.0 / self.radius ** 2) * self._time(t)[0]
        return np.array([coef * (mesh[a] - self.center[a]) for a in range(3)])

    def laplacian(self, mesh, t):
        s, psi, wp, wpp = self._space(mesh)
        grad_sq = 4.0 * s / self.radius ** 2
        lap_s = 6.0 / self.radius ** 2
        return ((wp ** 2 + wpp) * grad_sq + wp * lap_s) * psi * self._time(t)[0]

    def dt(self, mesh, t):
        tau, wp, _ = self._time(t)
        dq = 2.0 * (t - self.t_center) / self.t_radius ** 2
        return self._space(mesh)[1] * (tau * wp * dq)


def _cube_slices(box, corner, side):
    """Snap a requested cube onto the cell lattice of the parent box."""
    h, lo = box.spacing, box.lo
    i0 = [int(round((corner[a] - lo[a]) / h[a])) for a in range(3)]
    i1 = [int(round((corner[a] + side - lo[a]) / h[a])) for a in range(3)]
    if min(i0) < 0 or any(j > m for j, m in zip(i1, box.n)):
        raise ValueError(f"analysis cube at {tuple(corner)} with side {side} "
                         f"leaves the field's box {box.lo} to {box.hi}")
    if any(j - i < 16 for i, j in zip(i0, i1)):
        raise ValueError("analysis cube must span at least 16 cells per axis")
    return (tuple(slice(i, j) for i, j in zip(i0, i1)),
            Box3(tuple(lo[a] + i0[a] * h[a] for a in range(3)),
                 tuple(lo[a] + i1[a] * h[a] for a in range(3)),
                 tuple(j - i for i, j in zip(i0, i1))))


def _restrict_frame(frame, slices, sub_box):
    data = np.array([c.data[slices] for c in frame.components])
    return VectorGrid.from_array(sub_box, data)


def restrict_to_cube(frame, cube):
    """Extract the sub-grid of a frame covered by a Cube region."""
    slices, sub_box = _cube_slices(frame.box, cube.corner, cube.side)
    return _restrict_frame(frame, slices, sub_box)


def local_energy_residual(f, cube, phi, tol=1e-8, s=None, pressures=None,
                          nu=1.0):
    """Evaluate the seven integrals of the localized energy balance.

    For v = u + ∇p_h the balance reads::

        ∫|v(s)|²φ(s) + 2ν∫∫|∇v|²φ
          ≤ ∫∫|v|²(∂_t+νΔ)φ + ∫∫|v|²(v-∇p_h)·∇φ
            + 2∫∫(v⊗v - v⊗∇p_h : ∇²p_h)φ + 2∫∫(p₁+νp₂)v·∇φ

    with equality for smooth solutions, so slack = rhs - lhs measures the
    discretization error of a resolved run. nu is the viscosity the field
    evolved under; it multiplies the dissipation, the Δφ term, and p₂
    (the part of the local pressure driven by Δu). Time integrals use the
    frame trapezoid rule; φ and its derivatives are analytic.

    pressures may carry a precomputed list of LocalPressure records (one
    per frame) to amortize solves across several test functions.
    """
    if not (np.isfinite(nu) and nu > 0):
        raise ValueError(f"viscosity must be finite and positive, got {nu}")
    slices, sub_box = _cube_slices(f.box, cube.corner, cube.side)
    mesh = sub_box.center_mesh()
    times = f.times

    if s is None:
        s = times[-1]
    idx = [i for i, t in enumerate(times) if t <= s + 1e-12]
    if len(idx) < 3:
        raise ValueError("need at least 3 frames up to the evaluation time")

    # the bump must live strictly inside the cube and the covered time span
    r = phi.radius
    for a in range(3):
        if (phi.center[a] - r < sub_box.lo[a] - 1e-12
                or phi.center[a] + r > sub_box.hi[a] + 1e-12):
            raise ValueError("test function support leaves the analysis cube")
    if phi.t_center - phi.t_radius < times[0] - 1e-12:
        raise ValueError("test function support starts before the field")
    if not any(abs(times[i] - phi.t_center) < phi.t_radius for i in idx):
        raise ValueError(f"test function time support ({phi.t_center - phi.t_radius:g}, "
                         f"{phi.t_center + phi.t_radius:g}) holds no frame up to s={s:g}")
    if r < 4 * max(sub_box.spacing):
        raise ValueError("test function is unresolved: radius < 4 cells")
    dt_frames = np.diff(times[idx[0]:idx[-1] + 1])
    if len(dt_frames) and phi.t_radius < 2 * dt_frames.max():
        raise ValueError("test function is unresolved in time")

    vol = sub_box.cell_volume
    terms_t = {"grad": [], "phi_t": [], "phi_lap": [], "transport": [],
               "hessian": [], "pressure": []}
    v_at_s = phi_at_s = None

    for i in idx:
        t = times[i]
        u = _restrict_frame(f.frames[i], slices, sub_box)
        lp = pressures[i] if pressures is not None else pressure_parts(u, tol)
        gph = lp.grad_ph.stack()
        uarr = u.stack()
        varr = uarr + gph
        v2 = (varr ** 2).sum(axis=0)

        phi_val = phi.value(mesh, t)
        phi_grad = phi.grad(mesh, t)
        phi_lap = phi.laplacian(mesh, t)
        phi_dt = phi.dt(mesh, t)

        gv = gradient(VectorGrid.from_array(sub_box, varr))
        terms_t["grad"].append(float(((gv ** 2).sum(axis=(0, 1)) * phi_val).sum())
                               * vol)
        terms_t["phi_t"].append(float((v2 * phi_dt).sum()) * vol)
        terms_t["phi_lap"].append(float((v2 * phi_lap).sum()) * vol)
        terms_t["transport"].append(
            float((v2 * (uarr * phi_grad).sum(axis=0)).sum()) * vol)
        hess = gradient(VectorGrid.from_array(sub_box, gph))
        contraction = sum(varr[a] * uarr[b] * hess[a][b]
                          for a in range(3) for b in range(3))
        terms_t["hessian"].append(float((contraction * phi_val).sum()) * vol)
        psum = lp.solutions["p1"].p.data + nu * lp.solutions["p2"].p.data
        terms_t["pressure"].append(
            float((psum * (varr * phi_grad).sum(axis=0)).sum()) * vol)
        if i == idx[-1]:
            v_at_s = v2
            phi_at_s = phi_val

    tt = np.asarray(times)[idx]

    def integrate(key):
        return float(np.trapezoid(np.asarray(terms_t[key]), tt))

    terms = {
        "boundary": float((v_at_s * phi_at_s).sum()) * vol,
        "grad": 2.0 * nu * integrate("grad"),
        "phi_t": integrate("phi_t"),
        "phi_lap": nu * integrate("phi_lap"),
        "transport": integrate("transport"),
        "hessian": 2.0 * integrate("hessian"),
        "pressure": 2.0 * integrate("pressure"),
    }
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
        "s": float(tt[-1]),
        "frames_used": len(idx),
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

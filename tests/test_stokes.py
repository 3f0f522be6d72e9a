"""Local Stokes projection, pressure decomposition, and energy balance.

Oracles: the projection applied to an analytic gradient must return it
(up to the O(h^2) cell/face transfer), a rigidly rotating field has the
closed-form centrifugal pressure gradient, linear fields have exactly
harmonic local pressure, and spatially constant data makes every energy
integral vanish. The rigidity bounds are checked on fields whose ball
integrals have elementary values.
"""

import gc
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft

from regscan.grid import Box3, Cube, ScalarGrid, SpaceTimeField, VectorGrid, gradient
from regscan import stokes
from regscan.lorentz import weak_norm
from regscan.stokes import (
    BumpTestFunction,
    StokesError,
    convective_divergence,
    estar,
    harmonic_residual,
    harmonic_rigidity_check,
    local_energy_residual,
    pressure_parts,
    projection_residual,
    restrict_to_cube,
    vector_laplacian,
)
from regscan.stokes import (_apply_a, _ax, _basis, _div_face, _gather, _grad_face,
                            _spread)


def unit_box(n):
    return Box3((0, 0, 0), (1, 1, 1), (n, n, n))


def trig_gradient(n):
    """grad of p = sin(pi x) sin(pi y) sin(pi z) sampled analytically."""
    pi = np.pi

    def gp(x, y, z):
        return (pi * np.cos(pi * x) * np.sin(pi * y) * np.sin(pi * z),
                pi * np.sin(pi * x) * np.cos(pi * y) * np.sin(pi * z),
                pi * np.sin(pi * x) * np.sin(pi * y) * np.cos(pi * z))

    return VectorGrid.sample(unit_box(n), gp)


def poly_gradient(n):
    """grad of p = x^3 y + z^2 - x y z."""
    return VectorGrid.sample(unit_box(n), lambda x, y, z: (
        3 * x ** 2 * y - y * z, x ** 3 - x * z, 2 * z - x * y))


def face_grad(sol):
    """∇p of a solution on the interior faces: the projection's own gradient."""
    return [_grad_face(sol.p.data, a, sol.p.box.spacing) for a in range(3)]


def div_faces(faces, h):
    """The cell divergence of face velocities, summed over components."""
    return sum(_div_face(f, a, h) for a, f in enumerate(faces))


def rel_diff(a, b):
    return float(np.sqrt(((a - b) ** 2).sum()) / np.sqrt((b ** 2).sum()))


def test_estar_zero_field():
    F = VectorGrid(unit_box(16), np.zeros((3, 16, 16, 16)))
    sol = estar(F)
    assert np.all(sol.p.data == 0.0)
    assert np.all(sol.grad_p.data == 0.0)
    assert sol.residuals["momentum"] == 0.0
    assert sol.residuals["divergence"] == 0.0
    assert sol.iterations == 0


@pytest.mark.parametrize("make,tol", [(trig_gradient, 5e-3), (poly_gradient, 2e-3)])
def test_estar_returns_manufactured_gradients(make, tol):
    F = make(32)
    sol = estar(F)
    assert rel_diff(sol.grad_p.data, F.data) <= tol
    assert abs(np.mean(sol.p.data)) <= 1e-12 * np.abs(sol.p.data).max()


def test_estar_is_linear():
    rng = np.random.default_rng(2)
    box = unit_box(20)
    Fa = VectorGrid(box, rng.normal(size=(3, 20, 20, 20)))
    Fb = VectorGrid(box, rng.normal(size=(3, 20, 20, 20)))
    mix = VectorGrid(box, 2.0 * Fa.data - 0.5 * Fb.data)
    ga = estar(Fa).grad_p.data
    gb = estar(Fb).grad_p.data
    gm = estar(mix).grad_p.data
    assert rel_diff(gm, 2.0 * ga - 0.5 * gb) <= 1e-6


def test_estar_reprojection_is_idempotent_at_face_level():
    sol = estar(trig_gradient(24))
    again = estar(sol)
    num = np.sqrt(sum(float(((a - b) ** 2).sum())
                      for a, b in zip(face_grad(again), face_grad(sol))))
    den = np.sqrt(sum(float((g ** 2).sum()) for g in face_grad(sol)))
    assert num / den <= 1e-5


def test_estar_domain_validation():
    with pytest.raises(ValueError):
        estar(VectorGrid(unit_box(8), np.zeros((3, 8, 8, 8))))
    slab = Box3((0, 0, 0), (1, 1, 0.5), (16, 16, 16))
    with pytest.raises(ValueError):
        estar(VectorGrid(slab, np.zeros((3, 16, 16, 16))))


def test_estar_raises_on_unreachable_tolerance(monkeypatch):
    monkeypatch.setattr(stokes, "CG_TOL", 1e-300)
    with pytest.raises(StokesError) as err:
        estar(trig_gradient(16))
    assert len(err.value.residual_history) > 1


def basis_matrix_refs(m):
    """The m-point orthonormal transforms of _basis (the DST-I of an axis
    with m + 1 cells), each with scipy's matrix of the same transform."""
    basis = _basis((m + 1, m, m), (1.0, 1.0, 1.0))
    eye = np.eye(m)

    def ref(fn, kind):
        return fn(eye, type=kind, norm="ortho", axis=0)

    return [(basis.C[1], ref(scipy.fft.dct, 2)),
            (basis.Q2[1], ref(scipy.fft.dst, 2)),
            (basis.Q1[0], ref(scipy.fft.dst, 1))]


@pytest.mark.parametrize("m", [15, 16, 31, 37, 50, 51])
def test_sine_matrices_match_scipy_dst(m):
    for mat, ref in basis_matrix_refs(m)[1:]:
        assert mat.shape == ref.shape
        assert np.abs(mat - ref).max() <= 1e-13


@pytest.mark.parametrize("m", [15, 16, 31, 37, 50, 51])
def test_cosine_matrix_matches_scipy_dct(m):
    mat, ref = basis_matrix_refs(m)[0]
    assert mat.shape == ref.shape
    assert np.abs(mat - ref).max() <= 1e-13


def cosine_operators(n, h):
    """K p̂ (∇Cᵀp̂ in each component's sine basis) and the Schur operator
    Ŝ p̂ = Σ_a K_aᵀ (K_a p̂ / lam_a), composed from the basis."""
    basis = _basis(n, h)

    def K(p_hat):
        return [g * x for g, x in zip(basis.g, _spread(basis.N, p_hat))]

    def S(p_hat):
        return _gather(basis.N, [g * k / lam for g, k, lam
                                 in zip(basis.g, K(p_hat), basis.lam)])

    return basis, K, S


def along(mat, x, axis):
    """mat applied along one axis of x (tensordot, independent of _along)."""
    return np.moveaxis(np.tensordot(mat, x, axes=(1, axis)), 0, axis)


def test_cosine_basis_velocity_solves_the_momentum_equation():
    # v_a = Q_aᵀ (K_a p̂ / lam_a) solves A v = ∇(Cᵀp̂) on the interior faces,
    # and Cᵀ Ŝ p̂ = -div v
    n, h = (16, 17, 19), (0.1, 0.13, 0.07)
    basis, K, S = cosine_operators(n, h)
    p_hat = np.random.default_rng(4).normal(size=n)
    v = []
    for a, (k, lam) in enumerate(zip(K(p_hat), basis.lam)):
        x = (k / lam)[_ax(a, slice(1, None))]     # mode 0 along a is empty
        for b in range(3):
            x = along((basis.Q1 if b == a else basis.Q2)[b].T, x, b)
        v.append(x)
    p, Sp = p_hat, S(p_hat)
    for b in range(3):
        p, Sp = along(basis.C[b].T, p, b), along(basis.C[b].T, Sp, b)
    for a, f in enumerate(v):
        assert rel_diff(_apply_a(f, a, h), _grad_face(p, a, h)) <= 1e-12
    assert rel_diff(Sp, -div_faces(v, h)) <= 1e-12


def test_cosine_schur_operator_is_symmetric_with_the_constant_null_space():
    n, h = (16, 17, 19), (0.1, 0.13, 0.07)
    _, _, S = cosine_operators(n, h)
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=n), rng.normal(size=n)
    xy, yx = float((x * S(y)).sum()), float((S(x) * y).sum())
    assert abs(xy - yx) <= 1e-12 * abs(xy)
    # dense on a small grid: one zero eigenvalue, with the (0, 0, 0) mode
    n, h = (4, 5, 6), (0.25, 0.2, 1 / 6)
    _, _, S = cosine_operators(n, h)
    eye = np.eye(int(np.prod(n)))
    dense = np.array([S(e.reshape(n)).ravel() for e in eye]).T
    assert np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()
    w, vec = np.linalg.eigh(dense)
    assert abs(w[0]) <= 1e-12 * w[-1] and w[1] >= 1e-3 * w[-1]
    assert abs(abs(vec[0, 0]) - 1.0) <= 1e-12


def test_mac_duality_on_interior_faces():
    # summation by parts with zero walls: Σ p div f = -Σ_a Σ_faces f_a (∇p)_a
    n, h = (16, 17, 19), (0.1, 0.13, 0.07)
    rng = np.random.default_rng(9)
    p = rng.normal(size=n)
    faces = [rng.normal(size=[m - 1 if b == a else m for b, m in enumerate(n)])
             for a in range(3)]
    lhs = float((p * div_faces(faces, h)).sum())
    rhs = -sum(float((f * _grad_face(p, a, h)).sum()) for a, f in enumerate(faces))
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_projection_residual_is_the_face_level_reprojection_error():
    sol = estar(trig_gradient(24))
    grad = face_grad(sol)
    assert [g.shape for g in grad] == [(23, 24, 24), (24, 23, 24), (24, 24, 23)]
    again = face_grad(estar(sol))
    num = np.sqrt(sum(float(((a - b) ** 2).sum()) for a, b in zip(again, grad)))
    den = np.sqrt(sum(float((g ** 2).sum()) for g in grad))
    assert projection_residual(sol) == num / den
    assert projection_residual(sol) <= 1e-5


def rotation_field(n, omega=1.7):
    return VectorGrid.sample(unit_box(n), lambda x, y, z: (
        -omega * (y - 0.5), omega * (x - 0.5), np.zeros_like(z)))


def test_pressure_parts_rigid_rotation():
    # u = omega x r: the convective pressure is the centrifugal potential,
    # and the linear field is harmonic so p2 and the ph-residual vanish
    omega = 1.7
    u = rotation_field(24, omega)
    parts = pressure_parts(u)
    x, y, z = u.box.center_mesh()
    centrifugal = np.stack([omega ** 2 * (x - 0.5),
                            omega ** 2 * (y - 0.5),
                            np.zeros_like(z)])
    assert rel_diff(parts.solutions["p1"].grad_p.data, centrifugal) <= 1e-6
    scale = np.abs(u.data).max()
    assert np.abs(parts.solutions["p2"].grad_p.data).max() <= 1e-9 * scale
    assert harmonic_residual(parts.solutions["ph"], u) <= 1e-9
    assert set(parts.solutions) == {"ph", "p1", "p2"}


def test_local_pressure_reads_through_to_its_solutions():
    # each solution's ∇p is the gradient of the pressure it holds
    parts = pressure_parts(rotation_field(16))
    for key in ("ph", "p1", "p2"):
        p = parts.solutions[key].p
        assert np.array_equal(parts.solutions[key].grad_p.data,
                              gradient(p.data, p.box.spacing))


def test_local_pressure_holds_only_its_pressures():
    # a record keeps p alone: ∇p is derived on read and the velocity is
    # certified by the residuals, not stored (3 n³ arrays for 3 solves)
    n = 24
    u = rotation_field(n)
    pressure_parts(u)     # fills the basis cache, which is not the records'
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parts = pressure_parts(u)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert set(parts.solutions) == {"ph", "p1", "p2"}
    assert held <= 4 * n ** 3 * 8


def test_pressure_parts_zero_field():
    u = VectorGrid(unit_box(16), np.zeros((3, 16, 16, 16)))
    parts = pressure_parts(u)
    for sol in parts.solutions.values():
        assert np.all(sol.grad_p.data == 0.0)


@pytest.fixture
def worker_pool(monkeypatch):
    """pressure_parts with a worker thread, whatever this process's CPUs and
    threads would pick."""
    with ThreadPoolExecutor(1) as pool:
        monkeypatch.setattr(stokes, "_submit", pool.submit)
        yield


@pytest.fixture(params=["worker", "inline"])
def solver_pool(request, monkeypatch):
    """pressure_parts with a worker thread, then with every solve inline."""
    if request.param == "worker":
        request.getfixturevalue("worker_pool")
    else:
        monkeypatch.setattr(stokes, "_submit", stokes._now)


@pytest.mark.parametrize("call", [
    pressure_parts,
    lambda u: harmonic_residual(estar(u), u),
], ids=["pressure_parts", "harmonic_residual"])
def test_pressure_parts_warns_on_compressible_input(call, worker_pool):
    # the check runs on the calling thread, where pytest.warns records it
    u = VectorGrid.sample(unit_box(16), lambda x, y, z: (x, y, z))
    with pytest.warns(UserWarning, match="far from solenoidal") as record:
        call(u)
    assert len(record) == 1


def random_field(n, seed=3):
    return VectorGrid(unit_box(n), np.random.default_rng(seed).normal(size=(3, n, n, n)))


def same_solution(a, b):
    return (a.p.data.tobytes() == b.p.data.tobytes() and a.residuals == b.residuals
            and a.iterations == b.iterations and a.residual_history == b.residual_history)


@pytest.mark.filterwarnings("ignore:input is far from solenoidal")
@pytest.mark.parametrize("n", [16, 27])
def test_pressure_parts_is_three_serial_solves_bit_for_bit(n, solver_pool):
    u = random_field(n)
    parts = pressure_parts(u)
    serial = {"ph": -u.data, "p1": -convective_divergence(u).data,
              "p2": vector_laplacian(u).data}
    assert list(parts.solutions) == ["ph", "p1", "p2"]
    for key, f in serial.items():
        assert same_solution(parts.solutions[key], estar(VectorGrid(u.box, f)))


@pytest.mark.parametrize("failing", ["ph", "p1", "p2"])
def test_pressure_parts_raises_a_failed_solve_once_all_have_finished(monkeypatch, failing,
                                                                     solver_pool):
    u = rotation_field(16)
    forcing = {"ph": -u.data, "p1": -convective_divergence(u).data,
               "p2": vector_laplacian(u).data}
    error = StokesError("planted failure", [1.0, 0.5])
    lock, running, finished = threading.Lock(), set(), []
    solve = stokes.estar

    def estar_or_fail(F):
        part = next(k for k, f in forcing.items() if np.array_equal(F.data, f))
        with lock:
            running.add(part)
        try:
            if part == failing:
                raise error
            # the others outlast the failure, a worker's solve the longest
            time.sleep(0.1 if threading.current_thread() is threading.main_thread() else 0.4)
            return solve(F)
        finally:
            with lock:
                running.discard(part)
                finished.append(part)

    monkeypatch.setattr(stokes, "estar", estar_or_fail)
    with pytest.raises(StokesError) as err:
        pressure_parts(u)
    assert err.value is error and err.value.residual_history == [1.0, 0.5]
    assert not running and sorted(finished) == ["p1", "p2", "ph"]


@pytest.mark.filterwarnings("ignore:input is far from solenoidal")
def test_concurrent_callers_share_the_solver_thread(solver_pool):
    # more calling threads than CPUs, over more grid sizes than the basis
    # cache holds, with thread switches forced often
    sizes = [16, 17, 18, 19, 20, 21]
    fields = [random_field(n, seed=n) for n in sizes]
    expected = [pressure_parts(u) for u in fields]
    got = [None] * len(fields)

    def run(i):
        got[i] = pressure_parts(fields[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(fields))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for a, b in zip(got, expected):
        assert all(same_solution(a.solutions[k], b.solutions[k]) for k in b.solutions)


@pytest.mark.parametrize("cpus, threads, worker", [
    (1, 1, False), (2, 1, True), (2, 2, False), (4, 2, True)])
def test_solver_thread_needs_a_spare_cpu(monkeypatch, cpus, threads, worker):
    # numpy's BLAS runs one thread per CPU unless limited to one: a worker
    # beside them only contends for the CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    tasks, listdir, isdir = "/proc/self/task", os.listdir, os.path.isdir
    monkeypatch.setattr(os.path, "isdir", lambda path: path == tasks or isdir(path))
    monkeypatch.setattr(os, "listdir", lambda path=".": (
        [str(i) for i in range(threads)] if path == tasks else listdir(path)))
    submit = stokes._solver_pool()
    if not worker:
        assert submit is stokes._now
        return
    assert isinstance(submit.__self__, ThreadPoolExecutor)
    assert submit.__self__._max_workers == 1
    submit.__self__.shutdown()


def test_solver_pool_without_a_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert stokes._solver_pool() is stokes._now


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_pressure_parts_runs_in_a_forked_child(worker_pool):
    u = rotation_field(16)
    expected = pressure_parts(u)        # the worker thread now exists
    pid = os.fork()
    if pid == 0:    # the child has no copy of the worker; it reports by exit code
        code = 1
        try:
            code = 0 if same_solution(pressure_parts(u).solutions["p2"],
                                      expected.solutions["p2"]) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid, "the child hung in pressure_parts"
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_convective_divergence_exact_on_linear_field():
    # u = (x, -y, 0): div(u ⊗ u) = (x, y, 0); face averages of the
    # quadratic products are exact away from the extrapolated wall fluxes
    u = VectorGrid.sample(unit_box(16), lambda x, y, z: (x, -y, np.zeros_like(z)))
    x, y, z = u.box.center_mesh()
    expected = np.stack([x, y, np.zeros_like(z)])
    inner = (slice(None),) + (slice(1, -1),) * 3
    got = convective_divergence(u).data
    assert np.allclose(got[inner], expected[inner], rtol=0.0, atol=1e-12)


def test_vector_laplacian_exact_on_quadratic():
    v = VectorGrid.sample(unit_box(16), lambda x, y, z: (
        x * x + 2 * y * y, x * y, z * z - x * x))
    lap = vector_laplacian(v).data
    assert np.allclose(lap[0], 6.0, atol=1e-9)
    assert np.allclose(lap[1], 0.0, atol=1e-9)
    assert np.allclose(lap[2], 0.0, atol=1e-9)


def test_harmonic_residual_vanishes_on_discrete_harmonic():
    box = unit_box(20)
    p = ScalarGrid.sample(box, lambda x, y, z: x * x + y * y - 2 * z * z)
    sol = estar(trig_gradient(20))
    fake = type(sol)(p=p, residuals={}, iterations=0)
    assert harmonic_residual(fake) <= 1e-10


def test_harmonic_residual_grows_with_injected_divergence():
    n = 24
    box = unit_box(n)
    base = rotation_field(n)
    x, y, z = box.center_mesh()
    chi = np.stack([np.sin(np.pi * x), np.sin(np.pi * y), np.sin(np.pi * z)])
    residuals = []
    for amp in (0.0, 0.1, 0.2, 0.4):
        u = VectorGrid(box, base.data + amp * chi)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # deliberately compressible input
            parts = pressure_parts(u)
            residuals.append(harmonic_residual(parts.solutions["ph"], u))
    assert all(a < b for a, b in zip(residuals, residuals[1:]))


def test_restrict_to_cube_extracts_the_subgrid():
    box = unit_box(32)
    g = VectorGrid.sample(box, lambda x, y, z: (x, 2 * y, z + x))
    sub = restrict_to_cube(g, Cube((0.25, 0.25, 0.25), 0.5))
    assert sub.box.lo == (0.25, 0.25, 0.25)
    assert sub.box.n == (16, 16, 16)
    assert np.array_equal(sub.data[1], g.data[1][8:24, 8:24, 8:24])
    with pytest.raises(ValueError):
        restrict_to_cube(g, Cube((0.25, 0.25, 0.25), 0.25))


@pytest.mark.parametrize("corner, side", [
    ((-0.25, 0.25, 0.25), 0.75),   # starts 8 cells below the box
    ((0.25, 0.25, 0.5), 0.75),     # ends 8 cells above it
    ((-1.0, -1.0, -1.0), 5.0),     # covers it on every side
])
def test_restrict_to_cube_rejects_a_cube_leaving_the_box(corner, side):
    g = VectorGrid.sample(unit_box(32), lambda x, y, z: (x, y, z))
    with pytest.raises(ValueError, match=r"leaves the field's box \(0.0, 0.0, 0.0\) "
                                         r"to \(1.0, 1.0, 1.0\)"):
        restrict_to_cube(g, Cube(corner, side))
    # one rounded cell of slack stays inside
    sub = restrict_to_cube(g, Cube((-0.01, 0.0, 0.0), 1.0))
    assert sub.box.n == (32, 32, 32)


def test_bump_function_validation():
    phi = BumpTestFunction(np.array([1, 2, 3]), 0.5, 0.0, 0.2)
    assert phi.center == (1.0, 2.0, 3.0)
    assert all(type(c) is float for c in phi.center)
    origin = (0.0, 0.0, 0.0)
    for args, match in [(((0.0, np.nan, 0.0), 0.5, 0.0, 0.2), "center must be finite"),
                        ((origin, np.inf, 0.0, 0.2), "radius must be finite"),
                        ((origin, 0.5, np.nan, 0.2), "t_center must be finite"),
                        ((origin, 0.0, 0.0, 0.2), "must be positive"),
                        ((origin, 0.5, 0.0, -0.2), "must be positive")]:
        with pytest.raises(ValueError, match=match):
            BumpTestFunction(*args)


def test_bump_function_derivatives_match_finite_differences():
    phi = BumpTestFunction((0.2, -0.1, 0.0), 0.8, 1.0, 0.5)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.3, 0.5, size=(3, 40))
    mesh = [pts[0], pts[1], pts[2]]
    t = 0.85
    h = 1e-6
    for a in range(3):
        up = [p.copy() for p in mesh]
        dn = [p.copy() for p in mesh]
        up[a] += h
        dn[a] -= h
        fd = (phi._at(up)(t)[0] - phi._at(dn)(t)[0]) / (2 * h)
        assert np.allclose(phi._at(mesh)(t)[1][a], fd, rtol=1e-4, atol=1e-7)
    fd_t = (phi._at(mesh)(t + h)[0] - phi._at(mesh)(t - h)[0]) / (2 * h)
    assert np.allclose(phi._at(mesh)(t)[3], fd_t, rtol=1e-4, atol=1e-7)
    h2 = 1e-4
    lap_fd = np.zeros_like(mesh[0])
    for a in range(3):
        up = [p.copy() for p in mesh]
        dn = [p.copy() for p in mesh]
        up[a] += h2
        dn[a] -= h2
        lap_fd += (phi._at(up)(t)[0] - 2 * phi._at(mesh)(t)[0]
                   + phi._at(dn)(t)[0]) / h2 ** 2
    assert np.allclose(phi._at(mesh)(t)[2], lap_fd, rtol=1e-4, atol=1e-5)


def test_bump_function_is_compactly_supported():
    phi = BumpTestFunction((0.0, 0.0, 0.0), 0.5, 0.0, 0.2)
    far = [np.array([0.6]), np.array([0.0]), np.array([0.0])]
    assert phi._at(far)(0.0)[0] == 0.0
    inside = [np.array([0.0]), np.array([0.0]), np.array([0.0])]
    assert phi._at(inside)(0.0)[0] > 0.0
    assert phi._at(inside)(0.3)[0] == 0.0          # outside the time interval
    assert np.all(phi._at(inside)(0.3)[3] == 0.0)


def constant_spacetime(n, frames, value):
    box = Box3((0, 0, 0), (2 * np.pi,) * 3, (n, n, n))
    times = np.linspace(0.0, 0.4, frames)
    arr = np.full((3, n, n, n), value)
    return SpaceTimeField(times, [VectorGrid(box, arr.copy())
                                  for _ in times])


def test_local_energy_residual_zero_field():
    f = constant_spacetime(20, 4, 0.0)
    cube = Cube((0.5, 0.5, 0.5), 5.0)
    phi = BumpTestFunction((3.0, 3.0, 3.0), 1.5, 0.3, 0.3)
    out = local_energy_residual(f, cube, phi)
    assert out["lhs"] == out["rhs"] == out["slack"] == 0.0
    assert all(v == 0.0 for v in out["terms"].values())
    assert out["frames_used"] == 4


def test_local_energy_residual_validations():
    f = constant_spacetime(20, 4, 0.0)
    cube = Cube((0.5, 0.5, 0.5), 5.0)
    good = BumpTestFunction((3.0, 3.0, 3.0), 1.5, 0.3, 0.3)
    with pytest.raises(ValueError):
        local_energy_residual(f, cube, good, nu=0.0)
    with pytest.raises(ValueError):     # support pokes out of the cube
        local_energy_residual(
            f, cube, BumpTestFunction((0.8, 3.0, 3.0), 1.5, 0.3, 0.3))
    with pytest.raises(ValueError):     # starts before the first frame
        local_energy_residual(
            f, cube, BumpTestFunction((3.0, 3.0, 3.0), 1.5, 0.1, 0.3))
    with pytest.raises(ValueError):     # spatially unresolved
        local_energy_residual(
            f, cube, BumpTestFunction((3.0, 3.0, 3.0), 0.5, 0.3, 0.2))
    with pytest.raises(ValueError):     # temporally unresolved
        local_energy_residual(
            f, cube, BumpTestFunction((3.0, 3.0, 3.0), 1.5, 0.35, 0.05))
    with pytest.raises(ValueError):     # fewer than 3 frames up to s
        local_energy_residual(SpaceTimeField(f.times[:2], f.frames[:2]), cube, good)


@pytest.mark.parametrize("tc, frames", [(0.9, 4), (0.6, 3)],
                         ids=["after-the-field", "after-s"])
def test_local_energy_residual_rejects_a_bump_off_every_frame(monkeypatch, tc, frames):
    import regscan.stokes

    def no_solve(*args, **kwargs):
        raise AssertionError("pressure solve before the time-support check")

    monkeypatch.setattr(regscan.stokes, "pressure_parts", no_solve)
    f = constant_spacetime(20, 4, 1.0)     # frames at 0, 0.133, 0.267, 0.4
    f = SpaceTimeField(f.times[:frames], f.frames[:frames])    # up to s
    phi = BumpTestFunction((3.0, 3.0, 3.0), 1.5, tc, 0.3)
    with pytest.raises(ValueError, match="holds no frame up to s"):
        local_energy_residual(f, Cube((0.5, 0.5, 0.5), 5.0), phi)


@pytest.mark.parametrize("nu", [np.nan, np.inf, -0.05])
def test_local_energy_residual_rejects_bad_viscosity(nu):
    f = constant_spacetime(20, 4, 0.0)
    phi = BumpTestFunction((3.0, 3.0, 3.0), 1.5, 0.3, 0.3)
    with pytest.raises(ValueError, match="viscosity must be finite and positive"):
        local_energy_residual(f, Cube((0.5, 0.5, 0.5), 5.0), phi, nu=nu)


def test_local_energy_residual_on_resolved_run(tg_field):
    cube = Cube((0.6, 0.6, 0.6), 5.0)
    phi = BumpTestFunction((np.pi, np.pi, np.pi), 1.8, 0.21, 0.15)
    out = local_energy_residual(tg_field, cube, phi, nu=0.05)
    # the balance holds up to discretization error on a resolved run
    assert out["slack_relative"] >= -1e-2
    assert abs(out["slack_relative"]) <= 0.1
    assert out["terms"]["grad"] > 0.0
    assert out["frames_used"] == len(tg_field.times)


def test_local_energy_residual_accepts_precomputed_pressures(tg_field):
    cube = Cube((0.6, 0.6, 0.6), 5.0)
    pressures = [pressure_parts(restrict_to_cube(fr, cube))
                 for fr in tg_field.frames]
    phi = BumpTestFunction((np.pi, np.pi, np.pi), 1.8, 0.21, 0.15)
    inline = local_energy_residual(tg_field, cube, phi, nu=0.05)
    shared = local_energy_residual(tg_field, cube, phi, nu=0.05,
                                   pressures=pressures)
    assert shared["lhs"] == pytest.approx(inline["lhs"], rel=1e-12)
    assert shared["rhs"] == pytest.approx(inline["rhs"], rel=1e-12)


def pole_grid(n, delta=0.2):
    box = Box3((-1, -1, -1), (1, 1, 1), (n, n, n))
    return ScalarGrid.sample(box, lambda x, y, z: 1.0 / np.maximum(
        np.sqrt(x * x + y * y + z * z), delta))


def test_rigidity_constant_field_decays_like_inverse_radius():
    box = Box3((-1, -1, -1), (1, 1, 1), (48, 48, 48))
    g = ScalarGrid.sample(box, lambda x, y, z: np.full_like(x, 2.0))
    out = harmonic_rigidity_check(g, np.linspace(0.3, 0.9, 7))
    assert out["grad_norm"] <= 1e-12
    assert all(r["bound_holds"] for r in out["records"])
    assert -1.1 <= out["slope_direct"] <= -0.9


def test_rigidity_linear_field_bound_is_flat():
    box = Box3((-1, -1, -1), (1, 1, 1), (48, 48, 48))
    g = ScalarGrid.sample(box, lambda x, y, z: x)
    out = harmonic_rigidity_check(g, np.linspace(0.3, 0.9, 7))
    assert out["grad_norm"] == pytest.approx(1.0, rel=1e-9)
    # int_{B_R} |x_1| = pi R^4 / 2, so the bound sits at the constant 6
    for rec in out["records"]:
        assert rec["bound_direct"] == pytest.approx(6.0, rel=0.05)
        assert rec["bound_holds"]
    assert abs(out["slope_direct"]) <= 0.2


def test_rigidity_weak_l3_split_bound_decays_like_r_minus_two():
    g = pole_grid(48)
    M = weak_norm(g, 3.0)
    radii = np.linspace(0.3, 0.9, 7)
    out = harmonic_rigidity_check(g, radii, M=M)
    assert out["slope_direct"] <= -1.5
    assert out["slope_split"] == pytest.approx(-2.0, abs=1e-9)
    rec = out["records"][0]
    assert rec["bound_split"] == pytest.approx(
        12 / np.pi * (4 * np.pi / 3 + M ** 3 / 2) / rec["R"] ** 2, rel=1e-12)
    assert radii[0] <= out["crossover_R"] <= radii[-1]


def test_rigidity_validation():
    g = pole_grid(24)
    with pytest.raises(ValueError):
        harmonic_rigidity_check(g, [0.1])            # below 3 cells
    with pytest.raises(ValueError):
        harmonic_rigidity_check(g, [0.5], center=(-1.0, 0.0, 0.0))

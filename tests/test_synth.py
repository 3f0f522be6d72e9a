"""Synthetic fields and the periodic solver.

The spike-profile weak norm has a closed form: |u| = c sin(theta) / |x - a|
away from the core, so m{|u| > h} = (2 pi / 3) (c/h)^3 int sin^4 and the
weak-L^3 norm is (pi^2/4)^(1/3) c. The angular integral is evaluated here
with scipy quadrature rather than copied from the implementation.

`run_solver` keeps its state on the retained 2/3 block of modes; it is
checked bit for bit against `full_spectrum_run`, the loop on the whole
half-spectrum with scipy's n-d transforms, and `random_solenoidal`'s numpy
passes against the same construction with scipy's `rfftn`/`irfftn`.
"""

import os
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.integrate import quad

from regscan import grid
from regscan.grid import Box3, SpaceTimeField, VectorGrid, gradient
from regscan.lorentz import weak_norm
from regscan.synth import (
    MAX_STEPS,
    SolverRun,
    SolverConfig,
    SolverError,
    SpikeSpec,
    default_box,
    random_solenoidal,
    run_solver,
    save_schedule,
    spike_field,
    taylor_green,
    _retained_block,
)


def one_spike(n, delta, c=1.0, box=None):
    box = box or Box3((-1, -1, -1), (1, 1, 1), (n, n, n))
    spec = SpikeSpec(centers=[(0.0, 0.0, 0.0)], amplitudes=[c],
                     axes=[(0, 0, 1)], delta=delta)
    return spike_field(spec, box)


def spectral_divergence_rms(v):
    n = v.box.n[0]
    k1 = np.fft.fftfreq(n, 1.0 / n)
    kz = np.arange(n // 2 + 1)
    kx, ky, kz = np.meshgrid(k1, k1, kz, indexing="ij")
    uh = sfft.rfftn(v.data, axes=(1, 2, 3))
    div = sfft.irfftn(1j * (kx * uh[0] + ky * uh[1] + kz * uh[2]), s=v.box.n)
    return np.sqrt(np.mean(div ** 2))


def test_spike_weak_norm_against_quadrature_oracle():
    c = 0.7
    angular = quad(lambda t: np.sin(t) ** 4, 0.0, np.pi)[0]
    oracle = (2.0 * np.pi / 3.0 * angular) ** (1.0 / 3.0) * c
    u = one_spike(48, delta=0.15, c=c)
    w = weak_norm(u.magnitude(), 3.0)
    assert w == pytest.approx(oracle, rel=0.02)


def test_spike_amplitude_homogeneity():
    w1 = weak_norm(one_spike(24, 0.2, c=1.0).magnitude(), 3.0)
    w3 = weak_norm(one_spike(24, 0.2, c=3.0).magnitude(), 3.0)
    assert w3 == pytest.approx(3.0 * w1, rel=1e-12)


def interior_divergence(v, exclude_kink=None):
    xs = v.box.centers()
    div = sum(np.gradient(c, x, axis=a, edge_order=2)
              for a, (c, x) in enumerate(zip(v.data, xs)))
    keep = np.ones(v.box.n, bool)
    if exclude_kink is not None:
        delta, pad = exclude_kink
        r = np.sqrt((v.box.center_mesh() ** 2).sum(axis=0))
        keep = (np.abs(r - delta) > pad) & (r < 0.85)
    return np.sqrt(np.mean(div[keep] ** 2))


def test_spike_field_is_discretely_solenoidal():
    # the profile is an exact curl; away from the core kink the centered
    # divergence is second order, so halving h divides the residual by ~4
    delta, pad = 1.0 / 3.0, 4 * (2.0 / 24.0)
    coarse = interior_divergence(one_spike(24, delta), (delta, pad))
    fine = interior_divergence(one_spike(48, delta), (delta, pad))
    assert coarse / fine >= 3.0
    spike = one_spike(48, delta)
    grad_scale = np.sqrt(np.mean(gradient(spike.data, spike.box.spacing) ** 2))
    assert fine <= 0.02 * grad_scale


def test_spike_validation():
    box = Box3((-1, -1, -1), (1, 1, 1), (16, 16, 16))
    with pytest.raises(ValueError):
        spike_field(SpikeSpec([(0, 0, 0)], [1.0], [(0, 0, 1)], delta=0.01), box)
    with pytest.raises(ValueError):
        spike_field(SpikeSpec([(5, 0, 0)], [1.0], [(0, 0, 1)], delta=0.3), box)
    with pytest.raises(ValueError):
        SpikeSpec([(0, 0, 0)], [1.0, 2.0], [(0, 0, 1)], delta=0.3)
    with pytest.raises(ValueError):
        SpikeSpec([(0, 0, 0)], [1.0], [(0, 0, 1)], delta=-0.1)


@pytest.mark.parametrize("change, name", [
    ({"delta": np.nan}, "delta"),
    ({"amplitudes": [np.nan]}, "amplitudes"),
    ({"axes": [(np.nan, 0.0, 1.0)]}, "axis"),
], ids=["delta", "amplitude", "axis"])
def test_spike_spec_rejects_non_finite_parameters(change, name):
    # each passed the sign and zero checks and gave a non-finite field
    args = {"centers": [(0, 0, 0)], "amplitudes": [1.0], "axes": [(0, 0, 1)], "delta": 0.3}
    with pytest.raises(ValueError, match=f"spike {name} must be finite, got .*nan"):
        SpikeSpec(**{**args, **change})


def test_taylor_green_is_mean_zero_and_solenoidal():
    u = taylor_green(default_box(32), amplitude=2.0)
    for comp in u.data:
        assert abs(np.mean(comp)) < 1e-14
    umax = np.abs(u.data).max()
    assert spectral_divergence_rms(u) <= 1e-12 * umax
    # extrema fall between cell centers, so umax only approaches the amplitude
    assert 2.0 * 0.97 <= umax <= 2.0 * (1 + 1e-12)
    half = taylor_green(default_box(32), amplitude=1.0)
    assert np.allclose(u.data, 2.0 * half.data, rtol=0, atol=1e-15)


def test_random_solenoidal_properties():
    u = random_solenoidal(default_box(24), seed=3, rms=1.5)
    rms = np.sqrt(np.mean(u.magnitude().data ** 2))
    assert rms == pytest.approx(1.5, rel=1e-12)
    assert spectral_divergence_rms(u) <= 1e-12 * rms
    # determinism and seed sensitivity
    again = random_solenoidal(default_box(24), seed=3, rms=1.5)
    assert np.array_equal(u.data, again.data)
    other = random_solenoidal(default_box(24), seed=4, rms=1.5)
    assert not np.allclose(u.data, other.data)


def test_random_solenoidal_band_limit():
    u = random_solenoidal(default_box(24), seed=3)
    uh = sfft.rfftn(u.data, axes=(1, 2, 3))
    k1 = np.fft.fftfreq(24, 1.0 / 24)
    kx, ky, kz = np.meshgrid(k1, k1, np.arange(13), indexing="ij")
    kk = np.sqrt(kx ** 2 + ky ** 2 + kz ** 2)
    outside = float((np.abs(uh[:, (kk < 2.0) | (kk > 8.0)]) ** 2).sum())
    total = float((np.abs(uh) ** 2).sum())
    assert outside <= 1e-20 * total


def scipy_random_solenoidal(n, seed, rms):
    """random_solenoidal's construction with scipy's n-d rfftn/irfftn."""
    ah = sfft.rfftn(np.random.default_rng(seed).standard_normal((3, n, n, n)),
                    axes=(1, 2, 3))
    k1 = sfft.fftfreq(n, 1.0 / n)
    k = np.stack(np.meshgrid(k1, k1, np.arange(n // 2 + 1, dtype=float),
                             indexing="ij"))
    kk = np.sqrt(np.sum(k * k, axis=0))
    ah *= (kk >= 2.0) & (kk <= 8.0)
    uh = 1j * np.stack([k[p] * ah[q] - k[q] * ah[p] for p, q in ((1, 2), (2, 0), (0, 1))])
    u = sfft.irfftn(uh, s=(n, n, n), axes=(1, 2, 3))
    return u * (rms / np.sqrt(np.mean(u ** 2) * 3.0))


@pytest.mark.parametrize("n", [27, 32, 48])
def test_random_solenoidal_equals_scipy_nd_transforms(n):
    for seed in (0, 5):
        expect = scipy_random_solenoidal(n, seed, 1.5)
        assert np.array_equal(random_solenoidal(default_box(n), seed=seed, rms=1.5).data, expect)


def test_random_solenoidal_requires_cubic_grid():
    with pytest.raises(ValueError):
        random_solenoidal(Box3((0, 0, 0), (1, 1, 1), (16, 16, 8)))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n=4)
    with pytest.raises(ValueError):
        SolverConfig(nu=0.0)
    with pytest.raises(TypeError, match="n must be an integer >= 8"):
        SolverConfig(n=16.0)
    with pytest.raises(ValueError, match="rounds to 0 steps"):
        SolverConfig(dt=0.2, t_end=0.1)
    with pytest.raises(ValueError):
        run_solver(SolverConfig(n=8, initial="vortex_sheet"))
    with pytest.raises(ValueError, match="unknown initial profile 5"):
        SolverConfig(initial=5)
    with pytest.raises(ValueError, match="seed must be an integer"):
        SolverConfig(initial="random", seed="x")
    for save_every in ("x", 0, -1, 1.5, True):
        with pytest.raises(ValueError, match="save_every must be None or an integer"):
            SolverConfig(save_every=save_every)
    assert SolverConfig(save_every=np.int64(2)).save_every == 2
    with pytest.raises(ValueError, match="seed must be an integer"):
        SolverConfig(initial="random", seed=True)
    # the step count is bounded before any step: MAX_STEPS is the last allowed
    for dt, t_end in ((5e-324, 1.0), (1e-300, 0.1), (1.0 / (MAX_STEPS + 1), 1.0)):
        with pytest.raises(ValueError, match=f"exceeds {MAX_STEPS} steps"):
            SolverConfig(dt=dt, t_end=t_end)
    SolverConfig(dt=1.0 / MAX_STEPS, t_end=1.0)


def test_solver_cfl_is_taken_on_the_stored_states():
    cfg = SolverConfig(n=16, nu=0.02, dt=0.01, t_end=0.05, initial="random",
                       seed=3, save_every=1)
    run = run_solver(cfg)
    h = 2 * np.pi / cfg.n
    umax = [np.max(np.abs(fr.data)) for fr in run.field.frames[:-1]]
    assert np.array_equal(run.cfl, np.array(umax) * cfg.dt / h)


def test_solver_frame_schedule_and_energy_decay():
    run = run_solver(SolverConfig(n=16, nu=0.05, dt=0.01, t_end=0.1,
                                  save_every=5))
    assert np.allclose(run.field.times, [0.0, 0.05, 0.1])
    assert run.field.box.n == (16, 16, 16)
    assert np.all(np.diff(run.energy) < 0.0)       # viscous decay, no forcing
    assert run.energy_balance_residual() <= 1e-3 * run.energy[0]
    assert run.cfl.max() < 0.5
    assert len(run.step_times) == len(run.energy) == len(run.dissipation)


def test_solver_preserves_zero_momentum():
    run = run_solver(SolverConfig(n=16, nu=0.02, dt=0.01, t_end=0.05,
                                  initial="random", seed=7, save_every=5))
    for frame in run.field.frames:
        rms = np.sqrt(np.mean(frame.data ** 2))
        for comp in frame.data:
            assert abs(np.mean(comp)) <= 1e-13 * rms


def test_solver_cfl_abort_carries_diagnostics():
    with pytest.raises(SolverError) as err:
        run_solver(SolverConfig(n=16, nu=0.05, dt=0.05, t_end=0.5,
                                amplitude=50.0))
    diag = err.value.diagnostics
    assert set(diag) >= {"step", "t", "cfl", "umax", "suggested_dt"}
    assert diag["cfl"] > 0.5
    assert 0 < diag["suggested_dt"] < 0.05


def test_solver_warns_on_misaligned_t_end():
    with pytest.warns(UserWarning):
        run_solver(SolverConfig(n=8, nu=0.05, dt=0.01, t_end=0.017,
                                save_every=1))


def test_default_box_covers_one_period():
    box = default_box(12)
    assert box.lo == (0.0, 0.0, 0.0)
    assert box.hi == pytest.approx((2 * np.pi,) * 3)
    assert box.n == (12, 12, 12)


def full_spectrum_run(cfg):
    """The solver loop on the whole half-spectrum, with scipy's irfftn/rfftn
    and the 2/3 mask applied as an array: the reference for run_solver."""
    n = cfg.n
    box = default_box(n)
    h = 2 * np.pi / n
    axes = (1, 2, 3)
    k1d = sfft.fftfreq(n, 1.0 / n)
    k = np.stack(np.meshgrid(k1d, k1d, np.arange(n // 2 + 1, dtype=float),
                             indexing="ij"))
    k2 = np.sum(k * k, axis=0)
    k2_safe = np.where(k2 == 0, 1.0, k2)
    cutoff = 2.0 / 3.0 * (n / 2.0)
    dealias = (np.abs(k[0]) < cutoff) & (np.abs(k[1]) < cutoff) & (np.abs(k[2]) < cutoff)
    wz = np.full(n // 2 + 1, 2.0)
    wz[0] = 1.0
    if n % 2 == 0:
        wz[-1] = 1.0

    def cross(a, b):
        return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                         a[0] * b[1] - a[1] * b[0]])

    def irfft(vh):
        return sfft.irfftn(vh, s=(n, n, n), axes=axes)

    def rhs(uh_, u):
        o = irfft(1j * cross(k, uh_))
        wh = sfft.rfftn(cross(u, o), axes=axes) * dealias
        div = np.sum(k * wh, axis=0)
        wh -= k * (div / k2_safe)
        wh[:, 0, 0, 0] = 0.0
        return wh - cfg.nu * k2 * uh_

    def stage(uh_):
        return rhs(uh_, irfft(uh_))

    def sums(uh_):
        a2 = np.abs(uh_) ** 2
        return (float(np.sum(wz * a2) / n ** 3 * h ** 3),
                2.0 * cfg.nu * float(np.sum(wz * k2 * a2) / n ** 3 * h ** 3))

    if cfg.initial == "random":
        u0 = random_solenoidal(box, seed=cfg.seed, rms=cfg.amplitude)
    else:
        u0 = taylor_green(box, cfg.amplitude)
    uh = sfft.rfftn(u0.data, axes=axes) * dealias
    nsteps = int(round(cfg.t_end / cfg.dt))
    save_every = cfg.save_every or max(1, int(np.ceil(nsteps / 16)))
    u = irfft(uh)
    frames, frame_times, step_times = [u], [0.0], [0.0]
    hist, cfl_hist = [sums(uh)], []
    dt = cfg.dt
    for step in range(1, nsteps + 1):
        umax = float(np.max(np.abs(u)))
        cfl = umax * dt / h
        cfl_hist.append(cfl)
        if cfl > 0.5:
            raise SolverError(f"CFL {cfl:.3f} exceeds 0.5 at step {step}", {
                "step": step, "t": (step - 1) * dt, "cfl": cfl, "umax": umax,
                "suggested_dt": 0.45 * h / umax})
        k1 = rhs(uh, u)
        k2s = stage(uh + 0.5 * dt * k1)
        k3s = stage(uh + 0.5 * dt * k2s)
        k4s = stage(uh + dt * k3s)
        uh = uh + (dt / 6.0) * (k1 + 2.0 * k2s + 2.0 * k3s + k4s)
        if not np.all(np.isfinite(uh.view(float))):
            raise SolverError(f"non-finite state at step {step}",
                              {"step": step, "t": step * dt, "cfl": cfl})
        u = irfft(uh)
        step_times.append(step * dt)
        hist.append(sums(uh))
        if step % save_every == 0 or step == nsteps:
            frames.append(u)
            frame_times.append(step * dt)
    energy, diss = (np.asarray(c) for c in zip(*hist))
    return SolverRun(
        field=SpaceTimeField(np.asarray(frame_times),
                             [VectorGrid(box, f) for f in frames]),
        step_times=np.asarray(step_times), energy=energy, dissipation=diss,
        cfl=np.asarray(cfl_hist), config=cfg)


def assert_runs_equal(run, ref):
    assert np.array_equal(run.field.times, ref.field.times)
    assert len(run.field.frames) == len(ref.field.frames)
    for fr, fr_ref in zip(run.field.frames, ref.field.frames):
        assert np.array_equal(fr.data, fr_ref.data)
    for name in ("step_times", "energy", "dissipation", "cfl"):
        assert np.array_equal(getattr(run, name), getattr(ref, name)), name


@pytest.mark.parametrize("initial", ["taylor_green", "random"])
@pytest.mark.parametrize("n", [8, 9, 15, 16, 24])
def test_solver_equals_the_full_spectrum_loop(n, initial):
    cfg = SolverConfig(n=n, nu=0.03, dt=0.01, t_end=0.04, initial=initial,
                       seed=n, amplitude=0.8, save_every=2)
    assert_runs_equal(run_solver(cfg), full_spectrum_run(cfg))


def test_solver_equals_the_full_spectrum_loop_off_the_save_schedule():
    # 7 steps saved every 3: frames at steps 0, 3, 6 and the last, 7
    cfg = SolverConfig(n=12, nu=0.02, dt=0.01, t_end=0.07, initial="random",
                       seed=2, save_every=3)
    run = run_solver(cfg)
    assert np.allclose(run.field.times, [0.0, 0.03, 0.06, 0.07])
    assert_runs_equal(run, full_spectrum_run(cfg))


@pytest.mark.parametrize("cfg", [
    SolverConfig(n=16, nu=0.05, dt=0.05, t_end=0.5, amplitude=50.0),
    SolverConfig(n=8, nu=1e200, dt=0.01, t_end=0.05, initial="random"),
], ids=["cfl", "non-finite"])
def test_solver_aborts_like_the_full_spectrum_loop(cfg):
    with pytest.raises(SolverError) as ref:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # overflow in the reference's arithmetic
            full_spectrum_run(cfg)
    with pytest.raises(SolverError) as err:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_solver(cfg)
    assert str(err.value) == str(ref.value)
    assert err.value.diagnostics == ref.value.diagnostics


@pytest.mark.parametrize("n", [8, 9, 15, 16, 24, 27, 33, 48, 64])
def test_retained_block_is_the_two_thirds_mask(n):
    k1d = sfft.fftfreq(n, 1.0 / n)
    kx, ky, kz = np.meshgrid(k1d, k1d, np.arange(n // 2 + 1.0), indexing="ij")
    cutoff = 2.0 / 3.0 * (n / 2.0)
    mask = (np.abs(kx) < cutoff) & (np.abs(ky) < cutoff) & (np.abs(kz) < cutoff)
    X, rz = _retained_block(n)
    assert len(X) ** 2 * rz == np.count_nonzero(mask)
    assert mask[np.ix_(X, X, np.arange(rz))].all()


@pytest.mark.parametrize("cfg", [
    SolverConfig(n=8, dt=0.01, t_end=0.07, save_every=3),      # last step off schedule
    SolverConfig(n=9, dt=0.01, t_end=0.23, initial="random"),   # default schedule
    SolverConfig(n=8, dt=0.01, t_end=0.05, save_every=1),
], ids=["off-schedule", "default", "every-step"])
def test_save_schedule_is_the_solvers_own(cfg):
    steps, times = save_schedule(cfg)
    run = run_solver(cfg)
    assert steps[0] == 0 and steps[-1] == len(run.step_times) - 1
    # fixed before step 1, each time is the solver's own step * dt, bit for bit
    assert run.step_times[steps].tolist() == times == run.field.times.tolist()
    handed = []
    streamed = run_solver(cfg, save=lambda a: handed.append(a.copy()))
    assert streamed.field is None and len(handed) == len(steps)
    for a, frame in zip(handed, run.field.frames):
        assert a.tobytes() == frame.data.tobytes()
    for key in ("step_times", "energy", "dissipation", "cfl"):
        assert getattr(streamed, key).tobytes() == getattr(run, key).tobytes()


# the first steps of the pipeline workload's run
PIPELINE_START = SolverConfig(n=48, nu=0.02, dt=0.01, t_end=0.03, initial="random",
                              seed=3, amplitude=0.5, save_every=1)


def run_both_ways(monkeypatch, cfg):
    """run_solver(cfg) with the worker thread, then with every job inline; the
    first run's jobs, as the worker ran them."""
    jobs = []
    with ThreadPoolExecutor(1) as pool, warnings.catch_warnings():
        warnings.simplefilter("ignore")     # overflow in an aborting run
        monkeypatch.setattr(grid, "_submit", lambda fn, *a: jobs.append(fn) or pool.submit(fn, *a))
        runs = []
        for submit in (None, grid._now):
            if submit is not None:
                monkeypatch.setattr(grid, "_submit", submit)
            try:
                runs.append(run_solver(cfg))
            except SolverError as exc:
                runs.append(exc)
    return runs, jobs


@pytest.mark.parametrize("cfg", [
    SolverConfig(n=8, nu=0.03, dt=0.01, t_end=0.04, save_every=2),
    SolverConfig(n=8, nu=0.03, dt=0.01, t_end=0.04, initial="random", seed=8, save_every=1),
    # odd n: the halves of every split pass differ in length
    SolverConfig(n=15, nu=0.05, dt=0.01, t_end=0.07, save_every=3),
    SolverConfig(n=9, nu=0.02, dt=0.01, t_end=0.05, initial="random", seed=2),
    PIPELINE_START,
], ids=["taylor-green-8", "random-8", "taylor-green-15", "random-9", "pipeline-start"])
def test_solver_is_bit_identical_with_the_worker_and_inline(monkeypatch, cfg):
    (threaded, inline), jobs = run_both_ways(monkeypatch, cfg)
    assert jobs, "the worker ran no job"
    assert_runs_equal(threaded, inline)
    for name in ("energy", "dissipation", "cfl"):
        assert getattr(threaded, name).tobytes() == getattr(inline, name).tobytes()


@pytest.mark.parametrize("cfg", [
    SolverConfig(n=16, nu=0.05, dt=0.05, t_end=0.5, amplitude=50.0),
    SolverConfig(n=8, nu=1e200, dt=0.01, t_end=0.05, initial="random"),
], ids=["cfl", "non-finite"])
def test_solver_aborts_the_same_with_the_worker_and_inline(monkeypatch, cfg):
    (threaded, inline), _ = run_both_ways(monkeypatch, cfg)
    assert isinstance(threaded, SolverError) and isinstance(inline, SolverError)
    assert str(threaded) == str(inline) and threaded.diagnostics == inline.diagnostics


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_run_solver_runs_in_a_forked_child(worker_pool, in_a_forked_child):
    cfg = SolverConfig(n=12, nu=0.05, dt=0.01, t_end=0.03, initial="random", seed=1)
    expected = run_solver(cfg)      # the worker thread now exists
    assert in_a_forked_child(lambda: run_solver(cfg).field.frames[-1].data.tobytes()
                             == expected.field.frames[-1].data.tobytes())

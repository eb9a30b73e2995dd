"""Monte-Carlo spectrum oracle: determinism, normalization, physics checks,
and exactness against a step-by-step reference estimator.

All runs are fixed-seed, so every assertion is reproducible bit for bit.
Statistical checks compare against the closed-form spectrum at three
standard errors.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from sqzopo import langevin
from sqzopo.langevin import LangevinConfig, simulate_output_spectrum
from sqzopo.model import OpoCavity, cavity_decay_rate, forward_variances

CAVITY = OpoCavity(T=0.15, L=0.011, round_trip_length=0.214)
GAMMA = cavity_decay_rate(CAVITY)
RHO = 0.15 / 0.161


def _config(x, *, seed, segments, steps, stability=0.04, gamma_loss_scale=1.0):
    gamma_out = 299_792_458.0 * 0.15 / 0.214
    gamma_loss = 299_792_458.0 * 0.011 / 0.214 * gamma_loss_scale
    gamma = gamma_out + gamma_loss
    dt = 2.0 * stability / (gamma * (1.0 + x))
    return LangevinConfig(
        gamma_out=gamma_out,
        gamma_loss=gamma_loss,
        x=x,
        dt=dt,
        duration=steps * dt,
        seed=seed,
        segments=segments,
    )


class TestConfigValidation:
    def test_stability_bound(self):
        with pytest.raises(ValueError, match="unstable"):
            LangevinConfig(
                gamma_out=GAMMA, gamma_loss=0.0, x=0.5, dt=0.2 / GAMMA,
                duration=1.0, seed=1, segments=8,
            )

    def test_duration_bound(self):
        with pytest.raises(ValueError, match="duration"):
            LangevinConfig(
                gamma_out=GAMMA, gamma_loss=0.0, x=0.0, dt=0.01 / GAMMA,
                duration=50.0 / GAMMA, seed=1, segments=8,
            )

    def test_minimum_segments(self):
        with pytest.raises(ValueError, match="segments"):
            _config(0.0, seed=1, segments=7, steps=4096)

    def test_pump_range(self):
        # The model's bound: x between PUMP_X_MAX and 1 is out of range too.
        for x in (0.9999999995, 1.0):
            with pytest.raises(ValueError, match=r"x must be in \[0, 0\.999999999\], got"):
                _config(x, seed=1, segments=8, steps=4096)

    @pytest.mark.parametrize(
        "field, value",
        [(f, v) for f in ("gamma_out", "gamma_loss", "dt") for v in (math.nan, math.inf, -math.inf)]
        + [(f, v) for f in ("seed", "segments") for v in (8.5, 8.0, "8", True, -1)]
        # 1e308 s is finite, but not its step count duration / dt
        + [("duration", 1e308)],
    )
    def test_non_finite_or_non_count_field_rejected(self, field, value):
        kwargs = dict(gamma_out=GAMMA, gamma_loss=0.0, x=0.0, dt=0.01 / GAMMA,
                      duration=200.0 / GAMMA, seed=1, segments=8)
        with pytest.raises(ValueError, match=field):
            LangevinConfig(**{**kwargs, field: value})

    def test_rates_from_cavity_match_decay_rate(self):
        cfg = LangevinConfig.from_cavity(
            CAVITY, x=0.3, dt=0.05 / GAMMA, duration=2000.0 / GAMMA, seed=1, segments=8
        )
        assert cfg.gamma_total == pytest.approx(GAMMA, rel=1e-12)
        assert cfg.gamma_out / cfg.gamma_total == pytest.approx(RHO, rel=1e-12)

    def test_nyquist_rejected(self):
        cfg = _config(0.0, seed=1, segments=8, steps=4096)
        with pytest.raises(ValueError, match="Nyquist"):
            simulate_output_spectrum(cfg, [math.pi / cfg.dt])

    def test_negative_frequency_rejected(self):
        cfg = _config(0.0, seed=1, segments=8, steps=4096)
        for omega in (-1.0, math.nan):
            with pytest.raises(ValueError, match=f"must be >= 0, got {omega}"):
                simulate_output_spectrum(cfg, [omega])

    def test_no_frequency_rejected(self):
        cfg = _config(0.0, seed=1, segments=8, steps=4096)
        with pytest.raises(ValueError, match="at least one sideband frequency"):
            simulate_output_spectrum(cfg, [])

    @pytest.mark.parametrize(
        "steps, segments", [(10**13, 8), (4096, 10**13)], ids=["duration", "segments"]
    )
    def test_run_larger_than_memory_rejected(self, steps, segments):
        # rejected before anything is allocated
        cfg = _config(0.5, seed=1, segments=segments, steps=steps)
        with pytest.raises(ValueError, match="bytes of working memory"):
            simulate_output_spectrum(cfg, [0.1 * GAMMA])


class TestDeterminism:
    def test_identical_config_is_bit_identical(self):
        cfg = _config(0.4, seed=2024, segments=8, steps=2048)
        omegas = [0.03 * GAMMA, 0.5 * GAMMA]
        first = simulate_output_spectrum(cfg, omegas)
        second = simulate_output_spectrum(cfg, omegas)
        assert first == second

    def test_seed_changes_estimate(self):
        omegas = [0.03 * GAMMA]
        a = simulate_output_spectrum(_config(0.4, seed=1, segments=8, steps=2048), omegas)
        b = simulate_output_spectrum(_config(0.4, seed=2, segments=8, steps=2048), omegas)
        assert a[0].r_plus != b[0].r_plus

    def test_reported_metadata(self):
        cfg = _config(0.4, seed=5, segments=16, steps=2048)
        pt = simulate_output_spectrum(cfg, [0.1 * GAMMA])[0]
        assert pt.segments == 16
        assert pt.seed == 5
        assert pt.bin_spacing_hz == pytest.approx(1.0 / (2048 * cfg.dt), rel=1e-9)


class TestConcurrency:
    """Each CPU's thread, bound to that CPU, takes the next segment left
    when it finishes one."""

    @pytest.mark.parametrize("steps", [4096, 2101])
    @pytest.mark.parametrize("segments", [8, 9, 41])
    @pytest.mark.parametrize("x", [0.0, 0.66])
    def test_bit_identical_across_cpu_counts(self, monkeypatch, steps, segments, x):
        # 9 and 41 segments do not split evenly over 2 or 5 workers
        cfg = _config(x, seed=13, segments=segments, steps=steps)
        omegas = [0.0, 0.03 * GAMMA, 0.3 * GAMMA]
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers as often as possible
        try:
            for cpus in (1, 2, 3, 5):
                monkeypatch.setattr(langevin.os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
                runs.append(simulate_output_spectrum(cfg, omegas))
        finally:
            sys.setswitchinterval(interval)
        assert all(run == runs[0] for run in runs[1:])

    def test_worker_error_reaches_caller(self, monkeypatch):
        # segment 5 is the sixth segment taken, by one of two workers
        real = langevin._segment_rng

        def failing(seed, segment, stream):
            if segment == 5:
                raise RuntimeError("draw failed for segment 5")
            return real(seed, segment, stream)

        monkeypatch.setattr(langevin.os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = _config(0.5, seed=1, segments=16, steps=2048)
        first = simulate_output_spectrum(cfg, [0.1 * GAMMA])  # starts the workers
        threads_before = threading.active_count()
        monkeypatch.setattr(langevin, "_segment_rng", failing)
        with pytest.raises(RuntimeError, match="segment 5"):
            simulate_output_spectrum(cfg, [0.1 * GAMMA])
        # the same workers, neither lost nor added, serve the next call
        assert threading.active_count() == threads_before
        monkeypatch.setattr(langevin, "_segment_rng", real)
        assert simulate_output_spectrum(cfg, [0.1 * GAMMA]) == first

    def test_error_stops_the_other_workers(self, monkeypatch):
        drawn = set()
        real = langevin._segment_rng

        def failing(seed, segment, stream):
            drawn.add(segment)
            if segment == 0:
                raise RuntimeError("draw failed for segment 0")
            return real(seed, segment, stream)

        monkeypatch.setattr(langevin.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(langevin, "_segment_rng", failing)
        with pytest.raises(RuntimeError, match="segment 0"):
            simulate_output_spectrum(_config(0.5, seed=1, segments=256, steps=32768), [0.1 * GAMMA])
        assert len(drawn) < 128  # without the stop, 255: all but segment 1

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}, {0, 1, 2}])
    def test_each_worker_thread_bound_to_its_own_cpu(self, monkeypatch, cpus):
        bound = []
        monkeypatch.setattr(langevin.os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(
            langevin.os, "sched_setaffinity",
            lambda pid, mask: bound.append((threading.current_thread(), set(mask))),
        )
        simulate_output_spectrum(_config(0.5, seed=1, segments=16, steps=2048), [0.1 * GAMMA])
        # every worker, a lone one too, runs on its own bound thread; the
        # caller's affinity is never set
        assert sorted((mask for _, mask in bound), key=min) == [{cpu} for cpu in sorted(cpus)]
        threads = {thread for thread, _ in bound}
        assert len(threads) == len(bound) and threading.current_thread() not in threads

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings(
        "ignore:This process .* is multi-threaded, use of fork:DeprecationWarning"
    )
    def test_forked_child_starts_its_own_workers(self):
        # a child inherits the worker table but not the threads serving it
        cfg = _config(0.5, seed=1, segments=8, steps=2048)
        first = simulate_output_spectrum(cfg, [0.1 * GAMMA])  # starts the workers
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            same = False
            try:
                same = simulate_output_spectrum(cfg, [0.1 * GAMMA]) == first
            finally:
                os.write(write, b"1" if same else b"0")
                os._exit(0)
        os.close(write)
        with os.fdopen(read, "rb") as result:
            deadline = time.monotonic() + 60.0
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("the forked child's oracle call did not return in 60 s")
                time.sleep(0.01)
            assert result.read() == b"1"


class TestWorkingSet:
    def test_one_segment_per_worker(self, monkeypatch):
        # criterion 9's shape on 2 CPUs: each worker's draws for one port of
        # one segment (16 bytes a step), their split transform (16 a step) and
        # the columns gathered from it (16 a column a raw bin, 8 raw bins a
        # frequency), the twiddles (16 a column a raw bin of one quadrature)
        # and the estimates (16 a segment a frequency)
        monkeypatch.setattr(langevin.os, "sched_getaffinity", lambda pid: {0, 1})
        workers, steps, cols, segments = 2, 32768, 32, 32
        omegas = [k * 0.1 * GAMMA for k in range(16)]
        cfg = _config(0.5, seed=3, segments=segments, steps=steps)
        # a first call loads numpy.random and numpy.fft, which the peak leaves out
        simulate_output_spectrum(_config(0.5, seed=3, segments=8, steps=2048), omegas[:1])
        tracemalloc.start()
        try:
            simulate_output_spectrum(cfg, omegas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_worker = 2 * steps + 8 * cols * len(omegas)
        bound = 16 * (workers * per_worker + 4 * cols * len(omegas) + segments * len(omegas))
        assert peak <= 1.05 * bound


class TestPhysics:
    def test_vacuum_in_vacuum_out(self):
        cfg = _config(0.0, seed=31, segments=64, steps=2048)
        omegas = [om * GAMMA for om in (0.01, 0.1, 0.5, 1.5)]
        for pt in simulate_output_spectrum(cfg, omegas):
            assert abs(pt.r_plus - 1.0) <= 3.0 * pt.stderr_plus
            assert abs(pt.r_minus - 1.0) <= 3.0 * pt.stderr_minus

    def test_lossless_resonant_closed_form(self):
        # gamma_loss = 0, x = 0.5, omega -> 0: R+ -> 9 and R- -> 1/9
        gamma_out = 299_792_458.0 * 0.15 / 0.214
        dt = 0.08 / (gamma_out * 1.5)
        cfg = LangevinConfig(
            gamma_out=gamma_out, gamma_loss=0.0, x=0.5, dt=dt,
            duration=16384 * dt, seed=42, segments=256,
        )
        pt = simulate_output_spectrum(cfg, [0.0])[0]
        assert abs(pt.r_plus - 9.0) <= 3.0 * pt.stderr_plus
        assert abs(pt.r_minus - 1.0 / 9.0) <= 3.0 * pt.stderr_minus

    def test_benchmark_operating_point(self):
        # the 250 mW point: R- within three standard errors of the closed
        # form at unit detection efficiency and rho from the rates
        x = 1.0 - 1.0 / math.sqrt(8.83)
        cfg = _config(x, seed=61, segments=512, steps=16384)
        omega = 2.0 * math.pi * 1e6
        pt = simulate_output_spectrum(cfg, [omega])[0]
        target = forward_variances(1.0, RHO, x, omega / cfg.gamma_total)
        assert abs(pt.r_minus - target.r_minus) <= 3.0 * pt.stderr_minus
        assert abs(pt.r_plus - target.r_plus) <= 3.0 * pt.stderr_plus

    def test_escape_efficiency_emergence(self):
        # doubling the loss rate at fixed output rate pushes the squeezed
        # quadrature toward shot noise exactly as rho = g_out/(g_out+g_loss)
        omega_ratio = 0.03
        base = _config(0.5, seed=71, segments=512, steps=8192)
        lossy = _config(0.5, seed=72, segments=512, steps=8192, gamma_loss_scale=2.0)
        pt_base = simulate_output_spectrum(base, [omega_ratio * base.gamma_total])[0]
        pt_lossy = simulate_output_spectrum(lossy, [omega_ratio * lossy.gamma_total])[0]
        assert pt_lossy.r_minus > pt_base.r_minus
        for cfg, pt in ((base, pt_base), (lossy, pt_lossy)):
            rho = cfg.gamma_out / cfg.gamma_total
            target = forward_variances(1.0, rho, 0.5, omega_ratio)
            assert abs(pt.r_minus - target.r_minus) <= 3.0 * pt.stderr_minus

    def test_standard_error_scaling(self):
        # quadrupling the segments should halve the standard error, within
        # a factor of 1.5
        omegas = [0.05 * GAMMA]
        small = simulate_output_spectrum(_config(0.5, seed=81, segments=64, steps=4096), omegas)[0]
        large = simulate_output_spectrum(_config(0.5, seed=81, segments=256, steps=4096), omegas)[0]
        for ratio in (
            small.stderr_plus / large.stderr_plus,
            small.stderr_minus / large.stderr_minus,
        ):
            assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5


def _brute_force_spectrum(cfg, omegas):
    """The estimator written out step by step: Euler update, midpoint
    output, full FFT of the Hann-windowed output, interpolated bins."""
    n = int(round(cfg.duration / cfg.dt))

    def draw(seg, stream, shape):
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(seg, stream))
        return np.random.default_rng(seq).standard_normal(shape)

    segs = range(cfg.segments)
    u = np.array([draw(seg, 0, (2, n)) for seg in segs])
    v = np.array([draw(seg, 1, (2, n)) for seg in segs])
    pole = 1.0 - cfg.gamma_total * np.array([1.0 - cfg.x, 1.0 + cfg.x]) / 2.0 * cfg.dt
    state = np.array([draw(seg, 2, 2) for seg in segs])
    state *= np.sqrt(cfg.gamma_total * cfg.dt / (1.0 - pole**2))
    drive = math.sqrt(cfg.dt) * (math.sqrt(cfg.gamma_out) * u + math.sqrt(cfg.gamma_loss) * v)
    out = np.empty_like(u)
    for k in range(n):
        nxt = pole * state + drive[:, :, k]
        out[:, :, k] = math.sqrt(cfg.gamma_out) * (state + nxt) / 2.0 - u[:, :, k] / math.sqrt(cfg.dt)
        state = nxt
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    # two-sided density of the windowed output; shot noise reads 1
    psd = np.abs(np.fft.fft(out * window)) ** 2 * cfg.dt / np.sum(window**2)
    df = 1.0 / (n * cfg.dt)
    top = n // 2 - 1
    values = []
    for om in omegas:
        f = min(max(om / (2.0 * math.pi), df), top * df)
        i = min(max(int(f / df), 1), top - 1)
        frac = f / df - i
        values.append(psd[:, :, i] * (1.0 - frac) + psd[:, :, i + 1] * frac)
    values = np.stack(values, axis=-1)
    return values.mean(axis=0), values.std(axis=0, ddof=1) / math.sqrt(cfg.segments)


class TestExactness:
    # the steps split into columns: 4096 = 128 x 32, 2101 = 191 x 11,
    # 5001 = 1667 x 3, and the prime 4099 stays one column
    @pytest.mark.parametrize("steps", [4096, 2101, 5001, 4099])
    @pytest.mark.parametrize("x", [0.0, 0.5, 0.66])
    @pytest.mark.parametrize("gamma_loss_scale", [1.0, 0.0])
    def test_matches_step_by_step_estimator(self, steps, x, gamma_loss_scale):
        # each worker takes many of 40 segments; omega = 0 clamps to bin 1
        # and the last request to the highest bin below Nyquist.  The
        # columns' raw bins are read conjugated from the upper half of their
        # transforms near Nyquist for 32 columns and at half Nyquist for 11
        # and 3.
        cfg = _config(x, seed=9, segments=40, steps=steps, gamma_loss_scale=gamma_loss_scale)
        nyquist = math.pi / cfg.dt
        omegas = [0.0, 0.03 * GAMMA, 0.3 * GAMMA, 0.5 * nyquist, 0.9998 * nyquist]
        mean, stderr = _brute_force_spectrum(cfg, omegas)
        for j, pt in enumerate(simulate_output_spectrum(cfg, omegas)):
            assert pt.r_plus == pytest.approx(mean[0, j], rel=1e-10, abs=0)
            assert pt.r_minus == pytest.approx(mean[1, j], rel=1e-10, abs=0)
            assert pt.stderr_plus == pytest.approx(stderr[0, j], rel=1e-10, abs=0)
            assert pt.stderr_minus == pytest.approx(stderr[1, j], rel=1e-10, abs=0)

"""Monte-Carlo cross-check of the squeezing spectrum from first principles.

Instead of evaluating the closed-form variances, this module integrates the
linearized intracavity quadrature dynamics of a below-threshold OPO,

    dX_pm = -(gamma_total / 2) (1 -+ x) X_pm dt
            + sqrt(gamma_out) dW_out + sqrt(gamma_loss) dW_loss,

with independent unit-intensity vacuum noise entering through the output
coupler and the loss port (explicit Euler-Maruyama stepping), forms the
output field by the input-output relation

    X_pm_out = sqrt(gamma_out) X_pm - X_pm_in,out,

and estimates its noise spectrum from segment-averaged Hann periodograms.
Spectra are normalized so that an unpumped cavity (x = 0) gives exactly the
shot-noise level 1 at every frequency.

Nothing is stepped sample by sample: the update, the output and the window
are linear in the noise, so each Hann bin is exact in closed form from three
raw DFT bins of the draws (the periodic Hann window is three complex
exponentials; Harris 1978, Proc. IEEE 66, 51) and one geometric tail sum
over them.  Only those raw bins are formed: the steps are laid out as rows
of up to 32 columns, each column gets one short ``rfft``, and each bin sums
its columns with twiddle factors (one decimation-in-time step; Cooley and
Tukey 1965, Math. Comp. 19, 297, pruned to the outputs used as in Markel
1971, IEEE Trans. Audio Electroacoust. 19, 305).  The tail sum factors on
the same rows and columns into a row and a column of powers.

Determinism: every segment draws its noise from generators seeded by
(seed, segment index, stream index) with fixed stream indices 0 (output
port), 1 (loss port) and 2 (initial intracavity state), and each
segment's estimate is stored by its index.  Segments run on one thread per
CPU the process may use, each bound to its own CPU and kept from call to
call, taking the next free segment: a worker draws each port of it into one
buffer and transforms it column by column into another, both allocated once
per call (numpy's draws, FFTs and sums release the GIL; ``rfft``'s ``out=``
needs numpy >= 2.0), and the results are bit-identical whatever the thread
count.  Each port stream yields one row of increments per quadrature.
Segments start from the exact stationary distribution of the discrete
update rule, so no burn-in transient enters the estimate.

numpy, the ``oracle`` extra, is imported only inside the functions that use
it: importing the package, and every subcommand but ``oracle``, needs none.
"""

from __future__ import annotations

import contextlib
import math
import os
import queue
import threading

from .model import SPEED_OF_LIGHT, OpoCavity, Record, _check_pump_parameter

# Bound on the dimensionless Euler step gamma_total (1 + x) dt / 2: smaller
# steps keep the discrete update a faithful, stable model of the dynamics.
STABILITY_LIMIT = 0.1

MIN_SEGMENTS = 8

# One worker thread per CPU, started on first use and kept for the life of the
# process.  Threads started afresh on every call at times started while the
# previous call's threads, though joined, still held their malloc arenas; glibc
# then gave them new arenas, which kept a few MB for good.
_workers: dict[int, queue.SimpleQueue] = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_workers.clear)  # a child inherits no threads


def _worker(cpu: int) -> queue.SimpleQueue:
    """The job queue of cpu's worker thread, which runs each job put on it."""
    fresh: queue.SimpleQueue = queue.SimpleQueue()
    jobs = _workers.setdefault(cpu, fresh)  # atomic: of two racing first calls, one wins
    if jobs is fresh:
        threading.Thread(target=_serve, args=(jobs,), daemon=True).start()
    return jobs


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        jobs.get()()


class LangevinConfig(Record):
    """Rates (rad/s), pump parameter, step size, per-segment duration,
    RNG seed and segment count for one spectrum estimation run."""

    def __init__(
        self, gamma_out: float, gamma_loss: float, x: float, dt: float, duration: float,
        seed: int, segments: int,
    ) -> None:
        self._store(locals())
        if not 0.0 < gamma_out < math.inf:
            raise ValueError(f"gamma_out must be finite and > 0, got {gamma_out}")
        if not 0.0 <= gamma_loss < math.inf:
            raise ValueError(f"gamma_loss must be finite and >= 0, got {gamma_loss}")
        _check_pump_parameter(x)
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        for name, value in (("seed", seed), ("segments", segments)):
            if type(value) is not int or value < 0:
                raise ValueError(f"{name} must be an int >= 0, got {value!r}")
        step = self.dt * self.gamma_total * (1.0 + self.x) / 2.0
        if step >= STABILITY_LIMIT:
            raise ValueError(
                f"unstable step: dt * gamma_total * (1 + x) / 2 = {step:.3g} "
                f"must be < {STABILITY_LIMIT}"
            )
        # A finite duration / dt keeps the step count a finite int.
        if not (100.0 / self.gamma_total <= self.duration and self.duration / self.dt < math.inf):
            raise ValueError(
                f"duration {self.duration:.3g} s out of range; need a finite "
                f">= 100 / gamma_total = {100.0 / self.gamma_total:.3g} s per segment"
            )
        if self.segments < MIN_SEGMENTS:
            raise ValueError(
                f"at least {MIN_SEGMENTS} segments required for a standard "
                f"error, got {self.segments}"
            )

    @property
    def gamma_total(self) -> float:
        return self.gamma_out + self.gamma_loss

    @classmethod
    def from_cavity(
        cls,
        cavity: OpoCavity,
        x: float,
        dt: float,
        duration: float,
        seed: int,
        segments: int,
    ) -> LangevinConfig:
        """Rates from a cavity: gamma_out = cT/l and gamma_loss = cL/l, so
        gamma_out + gamma_loss equals the cavity decay rate."""
        return cls(
            gamma_out=SPEED_OF_LIGHT * cavity.T / cavity.round_trip_length,
            gamma_loss=SPEED_OF_LIGHT * cavity.L / cavity.round_trip_length,
            x=x,
            dt=dt,
            duration=duration,
            seed=seed,
            segments=segments,
        )


class SpectrumPoint(Record):
    """Estimated normalized output spectrum at one sideband frequency:
    segment mean and standard error per quadrature, plus the periodogram
    bin spacing the estimate was interpolated on."""

    def __init__(
        self, omega: float, r_plus: float, r_minus: float, stderr_plus: float,
        stderr_minus: float, segments: int, seed: int, bin_spacing_hz: float,
    ) -> None:
        self._store(locals())


def _segment_rng(seed: int, segment: int, stream: int):  # a numpy Generator
    import numpy as np

    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(segment, stream))
    )


def simulate_output_spectrum(
    cfg: LangevinConfig, omega_list: list[float]
) -> list[SpectrumPoint]:
    """Estimate the normalized output noise spectrum at the requested
    sideband frequencies (rad/s).

    Each segment is an independent trajectory; its Hann periodogram is
    evaluated at each requested frequency by linear interpolation between
    the two nearest bins (requests are clamped to the resolved interior
    band, excluding the DC and Nyquist bins).  Means and standard errors
    are taken across segments in fixed segment order.  Where os.sysconf gives
    the physical memory (Unix), a run whose working set exceeds it raises
    ValueError before anything is allocated.
    """
    omegas = [float(om) for om in omega_list]
    if not omegas:
        raise ValueError("at least one sideband frequency required")
    n_steps = int(round(cfg.duration / cfg.dt))
    for om in omegas:
        if not om >= 0.0:
            raise ValueError(f"sideband frequency must be >= 0, got {om}")
        if om / (2.0 * math.pi) >= 0.5 / cfg.dt:
            raise ValueError(
                f"sideband frequency {om:.3g} rad/s exceeds the Nyquist "
                f"band of dt = {cfg.dt:.3g} s"
            )
    # The steps are split into rows of cols (see below).  One worker per usable
    # CPU holds one port's draws (16 bytes a step), their split transform (16 a
    # step) and the columns gathered from it (16 a column a raw bin, 8 raw bins
    # a frequency); the twiddles take 16 a column a raw bin of one quadrature
    # and the estimates 16 a segment a frequency.
    cols = max(c for c in range(1, 33) if n_steps % c == 0)
    rows = n_steps // cols
    pinnable = hasattr(os, "sched_setaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if pinnable else range(os.cpu_count() or 1)
    workers = min(len(cpus), cfg.segments)
    per_worker = 2 * n_steps + 8 * cols * len(omegas)
    needed = 16 * (workers * per_worker + 4 * cols * len(omegas) + cfg.segments * len(omegas))
    sizable = hasattr(os, "sysconf") and {"SC_PAGE_SIZE", "SC_PHYS_PAGES"} <= set(os.sysconf_names)
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") if sizable else math.inf
    if needed > available:
        raise ValueError(f"{cfg.segments} segments of {n_steps} steps need {needed} bytes "
                         f"of working memory; this machine has {available} bytes")

    import numpy as np

    df = 1.0 / (n_steps * cfg.dt)
    top = n_steps // 2 - 1  # highest bin below Nyquist
    f_req = np.clip(np.array(omegas) / (2.0 * math.pi), df, top * df)
    idx = np.clip((f_req / df).astype(int), 1, top - 1)
    frac = f_req / df - idx
    # The Hann bins idx and idx + 1 combine the raw DFT bins idx - 1 .. idx + 2.
    bins = idx[:, None] + np.arange(-1, 3)
    # Only those bins are formed.  With the steps split as k = m C + l into
    # R = n / C rows of C columns (C the largest divisor of n up to 32), bin r is
    # sum_l exp(-2 pi i r l / n) Y_l[r mod R], with Y_l the length-R DFT of
    # column l, read as conj(Y_l[R - r]) above R / 2 as the column is real.
    # A prime n gives C = 1: one plain rfft.
    wrapped = bins % rows
    folded = (wrapped > rows // 2)[..., None]
    wrapped = np.minimum(wrapped, rows - wrapped)
    twiddle = np.exp(-2j * math.pi * bins[..., None] * np.arange(cols) / n_steps)

    # Per-quadrature drift rates: the anti-squeezed (+) quadrature relaxes
    # slowly at gamma (1 - x) / 2, the squeezed (-) one fast at gamma (1 + x) / 2.
    decay = cfg.gamma_total * np.array([1.0 - cfg.x, 1.0 + cfg.x]) / 2.0
    pole = 1.0 - decay * cfg.dt
    # Exact stationary std of the discrete update, to start in steady state.
    x0_std = np.sqrt(cfg.gamma_total * cfg.dt / (1.0 - pole**2))
    sqrt_dt, sqrt_out, sqrt_loss = map(math.sqrt, (cfg.dt, cfg.gamma_out, cfg.gamma_loss))

    # For the update s[k+1] = p s[k] + d[k] and z = exp(-2 pi i r / n), the
    # DFT of the midpoints (s[k] + s[k+1]) / 2 at bin r is
    # (1 + z) / (2 (1 - p z)) (D_r + p s[0] - p s[n]) plus a term constant
    # in r, which the zero-sum Hann weights (1/2, -1/4, -1/4) cancel.  The end
    # state enters as p s[n] = p^(n+1) s[0] + sum_k p^(n-k) d[k], and on the
    # split n - k = C (R - 1 - m) + (C - l): the sum is a row-power, column-power
    # bilinear form of the draws.
    z = np.exp(-2j * math.pi * bins / n_steps)
    transfer = 0.5 * (1.0 + z) / (1.0 - pole[:, None, None] * z)
    row_powers = pole[:, None, None] ** (cols * np.arange(rows - 1, -1, -1))
    col_powers = pole[:, None, None] ** np.arange(cols, 0, -1)[:, None]
    x0_gain = x0_std * pole * (1.0 - pole**n_steps)
    # Hann density, sum(w**2) = 3 n / 8, over unit shot noise's one-sided 2.
    scale = cfg.dt / (3.0 * n_steps / 8.0)

    values = np.empty((cfg.segments, 2, len(omegas)))

    def raw_bins(draws, spec):
        split = np.fft.rfft(draws, axis=1, out=spec)[:, wrapped]  # a copy: spec is free again
        np.conjugate(split, out=split, where=folded)
        return np.einsum("qfbl,fbl->qfb", split, twiddle)

    errors: list[BaseException] = []
    segments = iter(range(cfg.segments))  # shared: a free worker takes the next
    finished: queue.SimpleQueue = queue.SimpleQueue()

    def run(cpu: int) -> None:
        try:
            if pinnable:
                with contextlib.suppress(OSError):  # placement only, never results
                    os.sched_setaffinity(0, {cpu})
            noise = np.empty((2, rows, cols))
            spec = np.empty((2, rows // 2 + 1, cols), complex)
            for seg in segments:
                if errors:
                    return
                port_bins, port_tails = [], []
                for stream in (0, 1):  # output port, then loss port
                    _segment_rng(cfg.seed, seg, stream).standard_normal(out=noise)
                    port_bins.append(raw_bins(noise, spec))
                    port_tails.append((row_powers @ noise @ col_powers)[..., 0, 0])
                xi = _segment_rng(cfg.seed, seg, 2).standard_normal(2)
                (u_bins, v_bins), (u_tail, v_tail) = port_bins, port_tails
                drive = sqrt_dt * (sqrt_out * u_bins + sqrt_loss * v_bins)
                ends = xi * x0_gain - sqrt_dt * (sqrt_out * u_tail + sqrt_loss * v_tail)
                # Output sampled at step midpoints: with the Ito update above this
                # reproduces the symmetric field/input correlation of the
                # input-output relation and leaves the x = 0 spectrum exactly flat.
                out = sqrt_out * transfer * (drive + ends[:, None, None]) - u_bins / sqrt_dt
                hann = 0.5 * out[..., 1:3] - 0.25 * (out[..., :2] + out[..., 2:])
                psd = scale * (hann.real**2 + hann.imag**2)
                values[seg] = psd[..., 0] * (1.0 - frac) + psd[..., 1] * frac
        except BaseException as exc:  # re-raised once every worker has stopped
            errors.append(exc)
        finally:
            finished.put(cpu)

    # Each worker runs on a thread bound to its own CPU: unbound, the kernel at
    # times ran both workers on one CPU of two for whole calls while the other
    # idled, at serial speed.  The caller only waits on the workers, so its own
    # CPU affinity is never changed.
    for cpu in cpus[:workers]:
        _worker(cpu).put(lambda cpu=cpu: run(cpu))
    for _ in range(workers):
        finished.get()
    if errors:
        raise errors[0]

    mean = values.mean(axis=0)
    stderr = values.std(axis=0, ddof=1) / math.sqrt(cfg.segments)
    return [
        SpectrumPoint(
            omega=omegas[j],
            r_plus=float(mean[0, j]),
            r_minus=float(mean[1, j]),
            stderr_plus=float(stderr[0, j]),
            stderr_minus=float(stderr[1, j]),
            segments=cfg.segments,
            seed=cfg.seed,
            bin_spacing_hz=df,
        )
        for j in range(len(omegas))
    ]

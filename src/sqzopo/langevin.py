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
are linear in the noise, so each Hann bin is exact in closed form from raw
DFT bins of the draws (the periodic Hann window is three complex
exponentials; Harris 1978, Proc. IEEE 66, 51) and one geometric tail sum.

Determinism: every segment draws its noise from generators seeded by
(seed, segment index, stream index) with fixed stream indices 0 (output
port), 1 (loss port) and 2 (initial intracavity state), and each
segment's estimate is stored by its index.  Segments run in blocks of two
on one thread per CPU the process may use, each bound to its own CPU,
taking the next free block and drawing and transforming into buffers it
allocates once per call (numpy's draws, FFTs and sums release the GIL;
``rfft``'s ``out=`` needs numpy >= 2.0), and the results are bit-identical
whatever the thread count.  Each port stream yields one row of increments
per quadrature.  Segments start from the exact stationary distribution of
the discrete update rule, so no burn-in transient enters the estimate.

numpy is imported inside the functions that compute with it, so importing
the package (and every subcommand but ``oracle``) does not load it.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading

from .model import SPEED_OF_LIGHT, OpoCavity, Record

# Bound on the dimensionless Euler step gamma_total (1 + x) dt / 2: smaller
# steps keep the discrete update a faithful, stable model of the dynamics.
STABILITY_LIMIT = 0.1

MIN_SEGMENTS = 8

# Segments a worker draws and transforms at once, into buffers it allocates
# once a call.  On 32 segments of 32,768 steps and 2 CPUs, a block of 2 holds
# half the memory of a block of 4 (tracemalloc peak 4.8 against 9.0 MB) and
# takes fewer minor faults (0.8-1.6 against 2.6-2.8 thousand a call); a block
# of 1 takes ~19 thousand and ~30% more CPU.
_BLOCK = 2


class LangevinConfig(Record):
    """Rates (rad/s), pump parameter, step size, per-segment duration,
    RNG seed and segment count for one spectrum estimation run."""

    def __init__(
        self, gamma_out: float, gamma_loss: float, x: float, dt: float, duration: float,
        seed: int, segments: int,
    ) -> None:
        self.__dict__.update(
            gamma_out=gamma_out, gamma_loss=gamma_loss, x=x, dt=dt, duration=duration, seed=seed,
            segments=segments,
        )
        if not 0.0 < gamma_out < math.inf:
            raise ValueError(f"gamma_out must be finite and > 0, got {gamma_out}")
        if not 0.0 <= gamma_loss < math.inf:
            raise ValueError(f"gamma_loss must be finite and >= 0, got {gamma_loss}")
        if not 0.0 <= x < 1.0:
            raise ValueError(f"pump parameter x must be in [0, 1), got {x}")
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
        if not 100.0 / self.gamma_total <= self.duration < math.inf:
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
        self.__dict__.update(
            omega=omega, r_plus=r_plus, r_minus=r_minus, stderr_plus=stderr_plus,
            stderr_minus=stderr_minus, segments=segments, seed=seed, bin_spacing_hz=bin_spacing_hz,
        )


def _segment_rng(seed: int, segment: int, stream: int) -> np.random.Generator:
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
    are taken across segments in fixed segment order.
    """
    omegas = [float(om) for om in omega_list]
    if not omegas:
        raise ValueError("at least one sideband frequency required")
    n_steps = int(round(cfg.duration / cfg.dt))
    for om in omegas:
        if om < 0.0:
            raise ValueError(f"sideband frequency must be >= 0, got {om}")
        if om / (2.0 * math.pi) >= 0.5 / cfg.dt:
            raise ValueError(
                f"sideband frequency {om:.3g} rad/s exceeds the Nyquist "
                f"band of dt = {cfg.dt:.3g} s"
            )
    # One worker per usable CPU holds one block of one port's draws (16 bytes
    # a step a segment) and their rfft (16); the tail powers take 16 a step
    # and the estimates 16 a frequency.
    pinnable = hasattr(os, "sched_setaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if pinnable else range(os.cpu_count() or 1)
    workers = min(len(cpus), -(-cfg.segments // _BLOCK))
    needed = 32 * workers * _BLOCK * n_steps + 16 * n_steps + 16 * cfg.segments * len(omegas)
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
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
    # state enters as p s[n] = p^(n+1) s[0] + sum_k p^(n-k) d[k].
    z = np.exp(-2j * math.pi * bins / n_steps)
    transfer = 0.5 * (1.0 + z) / (1.0 - pole[:, None, None] * z)
    tail = pole[:, None] ** np.arange(n_steps, 0, -1)
    x0_gain = x0_std * pole * (1.0 - pole**n_steps)
    # Hann density, sum(w**2) = 3 n / 8, over unit shot noise's one-sided 2.
    scale = cfg.dt / (3.0 * n_steps / 8.0)

    values = np.empty((cfg.segments, 2, len(omegas)))

    errors: list[BaseException] = []
    blocks = iter(range(0, cfg.segments, _BLOCK))  # shared: a free worker takes the next

    def run(cpu: int) -> None:
        try:
            if pinnable:
                with contextlib.suppress(OSError):  # placement only, never results
                    os.sched_setaffinity(0, {cpu})
            noise = np.empty((_BLOCK, 2, n_steps))
            spec = np.empty((_BLOCK, 2, n_steps // 2 + 1), complex)
            for start in blocks:
                if errors:
                    return
                segs = range(start, min(start + _BLOCK, cfg.segments))
                m = len(segs)
                port_bins, port_tails = [], []
                for stream in (0, 1):  # output port, then loss port
                    for row, seg in enumerate(segs):
                        _segment_rng(cfg.seed, seg, stream).standard_normal(out=noise[row])
                    # the fancy index copies, so spec is free for the next port
                    port_bins.append(np.fft.rfft(noise[:m], out=spec[:m])[..., bins])
                    port_tails.append(np.einsum("sqk,qk->sq", noise[:m], tail))
                xi = np.array([_segment_rng(cfg.seed, seg, 2).standard_normal(2) for seg in segs])
                (u_bins, v_bins), (u_tail, v_tail) = port_bins, port_tails
                drive = sqrt_dt * (sqrt_out * u_bins + sqrt_loss * v_bins)
                ends = xi * x0_gain - sqrt_dt * (sqrt_out * u_tail + sqrt_loss * v_tail)
                # Output sampled at step midpoints: with the Ito update above this
                # reproduces the symmetric field/input correlation of the
                # input-output relation and leaves the x = 0 spectrum exactly flat.
                out = sqrt_out * transfer * (drive + ends[:, :, None, None]) - u_bins / sqrt_dt
                hann = 0.5 * out[..., 1:3] - 0.25 * (out[..., :2] + out[..., 2:])
                psd = scale * (hann.real**2 + hann.imag**2)
                values[start : start + m] = psd[..., 0] * (1.0 - frac) + psd[..., 1] * frac
        except BaseException as exc:  # re-raised once every worker has stopped
            errors.append(exc)

    # Each worker gets a thread bound to its own CPU: unbound, the kernel at
    # times ran both workers on one CPU of two for whole calls while the other
    # idled, at serial speed.  The caller only waits on the threads, so its own
    # CPU affinity is never changed.
    threads = [threading.Thread(target=run, args=(cpu,)) for cpu in cpus[:workers]]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
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

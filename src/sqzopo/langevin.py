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

Determinism: every segment draws its noise from generators seeded by
(seed, segment index, stream index) with fixed stream indices 0 (output
port), 1 (loss port) and 2 (initial intracavity state), so results are
bit-identical regardless of evaluation order or concurrency.  Each port
stream yields one row of increments per quadrature.  Segments start from
the exact stationary distribution of the discrete update rule, so no
burn-in transient enters the estimate.

numpy and scipy are imported inside the functions that compute with them,
so importing the package (and every subcommand but ``oracle``) loads
neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import SPEED_OF_LIGHT, OpoCavity

# Dimensionless Euler step gamma_total (1 + x) dt / 2 must stay below this
# for the fast quadrature's recursion to be meaningfully stable.
STABILITY_LIMIT = 0.1

MIN_SEGMENTS = 8

_SEGMENT_CHUNK = 32


@dataclass(frozen=True)
class LangevinConfig:
    """Rates (rad/s), pump parameter, step size, per-segment duration,
    RNG seed and segment count for one spectrum estimation run."""

    gamma_out: float
    gamma_loss: float
    x: float
    dt: float
    duration: float
    seed: int
    segments: int

    def __post_init__(self) -> None:
        if self.gamma_out <= 0.0:
            raise ValueError(f"gamma_out must be > 0, got {self.gamma_out}")
        if self.gamma_loss < 0.0:
            raise ValueError(f"gamma_loss must be >= 0, got {self.gamma_loss}")
        if not 0.0 <= self.x < 1.0:
            raise ValueError(f"pump parameter x must be in [0, 1), got {self.x}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
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


@dataclass(frozen=True)
class SpectrumPoint:
    """Estimated normalized output spectrum at one sideband frequency:
    segment mean and standard error per quadrature, plus the periodogram
    bin spacing the estimate was interpolated on."""

    omega: float
    r_plus: float
    r_minus: float
    stderr_plus: float
    stderr_minus: float
    segments: int
    seed: int
    bin_spacing_hz: float


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
    import numpy as np
    from scipy.signal import lfilter, periodogram

    omegas = [float(om) for om in omega_list]
    if not omegas:
        raise ValueError("at least one sideband frequency required")
    n_steps = int(round(cfg.duration / cfg.dt))
    fs = 1.0 / cfg.dt
    for om in omegas:
        if om < 0.0:
            raise ValueError(f"sideband frequency must be >= 0, got {om}")
        if om / (2.0 * math.pi) >= fs / 2.0:
            raise ValueError(
                f"sideband frequency {om:.3g} rad/s exceeds the Nyquist "
                f"band of dt = {cfg.dt:.3g} s"
            )

    freqs = np.fft.rfftfreq(n_steps, d=cfg.dt)
    df = float(freqs[1])
    f_req = np.clip(np.array(omegas) / (2.0 * math.pi), freqs[1], freqs[-2])
    idx = np.clip((f_req / df).astype(int), 1, len(freqs) - 3)
    frac = f_req / df - idx

    # Per-quadrature drift rates: the anti-squeezed (+) quadrature relaxes
    # slowly at gamma (1 - x) / 2, the squeezed (-) one fast at
    # gamma (1 + x) / 2.
    decay = np.array(
        [
            cfg.gamma_total * (1.0 - cfg.x) / 2.0,
            cfg.gamma_total * (1.0 + cfg.x) / 2.0,
        ]
    )
    pole = 1.0 - decay * cfg.dt
    # Exact stationary std of the discrete update, used to start segments
    # in steady state.
    x0_std = np.sqrt(cfg.gamma_total * cfg.dt / (1.0 - pole**2))
    sqrt_dt = math.sqrt(cfg.dt)
    sqrt_out = math.sqrt(cfg.gamma_out)
    sqrt_loss = math.sqrt(cfg.gamma_loss)

    values = np.empty((cfg.segments, 2, len(omegas)))
    for start in range(0, cfg.segments, _SEGMENT_CHUNK):
        segs = range(start, min(start + _SEGMENT_CHUNK, cfg.segments))
        m = len(segs)
        dw_out = np.empty((m, 2, n_steps))
        dw_loss = np.empty((m, 2, n_steps))
        x0 = np.empty((m, 2))
        for row, seg in enumerate(segs):
            dw_out[row] = _segment_rng(cfg.seed, seg, 0).standard_normal((2, n_steps))
            dw_loss[row] = _segment_rng(cfg.seed, seg, 1).standard_normal((2, n_steps))
            x0[row] = _segment_rng(cfg.seed, seg, 2).standard_normal(2)
        dw_out *= sqrt_dt
        dw_loss *= sqrt_dt
        x0 *= x0_std

        drive = sqrt_out * dw_out + sqrt_loss * dw_loss
        state = np.empty((m, 2, n_steps + 1))
        state[:, :, 0] = x0
        for q in (0, 1):
            zi = (pole[q] * x0[:, q])[:, None]
            state[:, q, 1:], _ = lfilter(
                [1.0], [1.0, -pole[q]], drive[:, q, :], axis=-1, zi=zi
            )
        # Output sampled at step midpoints: with the Ito update above this
        # reproduces the symmetric field/input correlation of the
        # input-output relation and leaves the x = 0 spectrum exactly flat.
        mid = 0.5 * (state[:, :, :-1] + state[:, :, 1:])
        out = sqrt_out * mid - dw_out / cfg.dt
        # Free the dead chunk arrays before the periodogram adds its own
        # temporaries: the lower peak keeps the allocator from returning the
        # memory to the OS and faulting it back in on every call.
        del dw_out, dw_loss, drive, state, mid

        _, psd = periodogram(
            out, fs=fs, window="hann", detrend=False, scaling="density", axis=-1
        )
        psd /= 2.0  # one-sided density of unit shot noise is 2 in these units
        values[start : start + m] = psd[:, :, idx] * (1.0 - frac) + psd[:, :, idx + 1] * frac

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

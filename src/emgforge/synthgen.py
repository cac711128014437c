"""Deterministic synthetic arm-motion recordings with known IMU->envelope truth.

Each repetition is a smooth angular-velocity burst on the main gyro axis
(alternating rotation direction so consecutive reps return the joint to
its start). Accelerometers see the gravity projection of the integrated
joint angle. The ground-truth activation envelope is a causal moving
average of |gyro_y| with a fixed electromechanical-style lag, and the raw
EMG channel is that envelope amplitude-modulating band-limited noise, so
the full conditioning chain has real work to do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import signal as dsp
from .dataio import RawRecording, RecordingMeta
from .errors import ConfigError

GRAVITY = 9.81
# Peak angular rate of a rep burst, deg/s.
BURST_RATE_DPS = 120.0
# Mains interference and electrode DC added to the raw EMG channel; both are
# removed by the conditioning chain.
MAINS_HZ = 50.0
MAINS_AMPLITUDE = 0.02
DC_OFFSET = 0.01


@dataclass(frozen=True)
class MotionProfile:
    """Parameterization of one synthetic session."""

    motion: str = "bicep_curl"
    n_reps: int = 7
    rep_period_s: float = 3.0
    burst_gain: float = 0.0075
    lag_samples: int = 30
    noise_std: float = 0.01
    fs: float = 1000.0
    smooth_window: int = 100
    lead_in_s: float = 1.0

    def __post_init__(self):
        if self.n_reps < 1:
            raise ConfigError(f"n_reps must be >= 1, got {self.n_reps}")
        if self.lag_samples < 0:
            raise ConfigError(f"lag must be >= 0 to keep the ground truth causal")
        if self.rep_period_s <= 0 or self.fs <= 0 or self.smooth_window < 1:
            raise ConfigError("rep period, fs, and smooth window must be positive")


def causal_moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Mean over the last `window` samples, zeros before the first sample."""
    c = np.cumsum(np.asarray(x, dtype=np.float64))
    out = c.copy()
    out[window:] = c[window:] - c[:-window]
    return out / window


def ground_truth_envelope(gyro_y: np.ndarray, gain: float, lag: int, window: int) -> np.ndarray:
    """clamp(gain * moving_average(|gyro_y|), 0, 1), delayed by `lag` samples.

    Depends only on gyro samples at or before the output index.
    """
    smooth = causal_moving_average(np.abs(gyro_y), window)
    delayed = np.zeros_like(smooth)
    if lag == 0:
        delayed[:] = smooth
    else:
        delayed[lag:] = smooth[:-lag]
    return np.clip(gain * delayed, 0.0, 1.0)


def generate_recording(
    profile: MotionProfile,
    seed: int,
    day: int = 1,
) -> tuple[RawRecording, np.ndarray]:
    """Build one session of subject "syn01"; returns the recording and its
    ground-truth envelope.

    Identical (profile, seed) inputs produce bit-identical output.
    """
    rng = np.random.default_rng(seed)
    fs = profile.fs
    n = int(round((2 * profile.lead_in_s + profile.n_reps * profile.rep_period_s) * fs))
    t = np.arange(n) / fs

    # Angular velocity: one smooth burst per rep, alternating direction.
    gy_clean = np.zeros(n)
    burst_s = 0.6 * profile.rep_period_s
    for r in range(profile.n_reps):
        start = profile.lead_in_s + r * profile.rep_period_s
        u = (t - start) / burst_s
        mask = (u >= 0.0) & (u <= 1.0)
        sign = 1.0 if r % 2 == 0 else -1.0
        gy_clean[mask] += sign * BURST_RATE_DPS * np.sin(math.pi * u[mask]) ** 2

    theta = np.cumsum(gy_clean) / fs * math.pi / 180.0

    sigma = profile.noise_std
    gy = gy_clean + rng.normal(0.0, sigma, n)
    gx = 0.12 * gy_clean + rng.normal(0.0, sigma, n)
    gz = -0.07 * gy_clean + rng.normal(0.0, sigma, n)
    ax = GRAVITY * np.sin(theta) + rng.normal(0.0, sigma, n)
    ay = 0.1 * GRAVITY * np.sin(theta) * np.cos(theta) + rng.normal(0.0, sigma, n)
    az = GRAVITY * np.cos(theta) + rng.normal(0.0, sigma, n)

    envelope = ground_truth_envelope(
        gy, profile.burst_gain, profile.lag_samples, profile.smooth_window
    )

    # EMG carrier: unit-RMS band-limited noise, amplitude-modulated by the
    # envelope, with mains interference and a DC offset on top.
    white = rng.standard_normal(n)
    band = dsp.design_butterworth("bandpass", 4, (20.0, 300.0), fs)
    carrier = dsp.apply_filter(dsp.SampledSignal(white, fs), band).samples
    carrier = carrier / math.sqrt(float(np.mean(carrier**2)))
    emg = envelope * carrier + MAINS_AMPLITUDE * np.sin(2 * math.pi * MAINS_HZ * t) + DC_OFFSET

    meta = RecordingMeta(subject="syn01", motion=profile.motion, day=day)
    rec = RawRecording(
        emg=dsp.SampledSignal(emg, fs),
        accel_x=dsp.SampledSignal(ax, fs),
        accel_y=dsp.SampledSignal(ay, fs),
        accel_z=dsp.SampledSignal(az, fs),
        gyro_x=dsp.SampledSignal(gx, fs),
        gyro_y=dsp.SampledSignal(gy, fs),
        gyro_z=dsp.SampledSignal(gz, fs),
        meta=meta,
    )
    return rec, envelope

"""Deterministic synthetic arm-motion recordings with known IMU->envelope truth.

At 1 kHz, each repetition is a smooth angular-velocity burst on the main
gyro axis every 3 s (alternating rotation direction so consecutive reps
return the joint to its start). Accelerometers see the gravity projection
of the integrated joint angle. The ground-truth activation envelope is a
causal 100-sample moving average of |gyro_y| with a fixed 30-sample
electromechanical-style lag, and the raw EMG channel is that envelope
amplitude-modulating band-limited noise, so the full conditioning chain
has real work to do. A `MotionProfile` sets what varies between sessions.
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
# A session: LEAD_IN_S of rest, one rep every REP_PERIOD_S, LEAD_IN_S of rest.
FS = 1000.0
REP_PERIOD_S = 3.0
LEAD_IN_S = 1.0
# Truth: BURST_GAIN * the mean |gyro_y| over SMOOTH_WINDOW samples, LAG_SAMPLES late.
BURST_GAIN = 0.0075
SMOOTH_WINDOW = 100
LAG_SAMPLES = 30


@dataclass(frozen=True)
class MotionProfile:
    """What varies between synthetic sessions; the rest is the constants above."""

    motion: str = "bicep_curl"
    n_reps: int = 7
    noise_std: float = 0.01

    def __post_init__(self):
        if self.n_reps < 1:
            raise ConfigError(f"n_reps must be >= 1, got {self.n_reps}")


def ground_truth_envelope(gyro_y: np.ndarray) -> np.ndarray:
    """clamp(BURST_GAIN * the mean |gyro_y| over the last SMOOTH_WINDOW samples
    (zeros before the first), 0, 1), LAG_SAMPLES late.

    Depends only on gyro samples at or before the output index.
    """
    c = np.cumsum(np.abs(gyro_y))
    smooth = c.copy()
    smooth[SMOOTH_WINDOW:] = c[SMOOTH_WINDOW:] - c[:-SMOOTH_WINDOW]
    delayed = np.zeros_like(smooth)
    delayed[LAG_SAMPLES:] = smooth[:-LAG_SAMPLES] / SMOOTH_WINDOW
    return np.clip(BURST_GAIN * delayed, 0.0, 1.0)


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
    n = int(round((2 * LEAD_IN_S + profile.n_reps * REP_PERIOD_S) * FS))
    t = np.arange(n) / FS

    # Angular velocity: one smooth burst per rep, alternating direction.
    gy_clean = np.zeros(n)
    burst_s = 0.6 * REP_PERIOD_S
    for r in range(profile.n_reps):
        start = LEAD_IN_S + r * REP_PERIOD_S
        u = (t - start) / burst_s
        mask = (u >= 0.0) & (u <= 1.0)
        sign = 1.0 if r % 2 == 0 else -1.0
        gy_clean[mask] += sign * BURST_RATE_DPS * np.sin(math.pi * u[mask]) ** 2

    theta = np.cumsum(gy_clean) / FS * math.pi / 180.0

    sigma = profile.noise_std
    gy = gy_clean + rng.normal(0.0, sigma, n)
    gx = 0.12 * gy_clean + rng.normal(0.0, sigma, n)
    gz = -0.07 * gy_clean + rng.normal(0.0, sigma, n)
    ax = GRAVITY * np.sin(theta) + rng.normal(0.0, sigma, n)
    ay = 0.1 * GRAVITY * np.sin(theta) * np.cos(theta) + rng.normal(0.0, sigma, n)
    az = GRAVITY * np.cos(theta) + rng.normal(0.0, sigma, n)

    envelope = ground_truth_envelope(gy)

    # EMG carrier: unit-RMS band-limited noise, amplitude-modulated by the
    # envelope, with mains interference and a DC offset on top.
    white = rng.standard_normal(n)
    band = dsp.design_butterworth("bandpass", 4, (20.0, 300.0), FS)
    carrier = dsp.apply_filter(dsp.SampledSignal(white, FS), band).samples
    carrier = carrier / math.sqrt(float(np.mean(carrier**2)))
    emg = envelope * carrier + MAINS_AMPLITUDE * np.sin(2 * math.pi * MAINS_HZ * t) + DC_OFFSET

    meta = RecordingMeta(subject="syn01", motion=profile.motion, day=day)
    imu = np.stack([ax, ay, az, gx, gy, gz])  # IMU_CHANNELS order
    return RawRecording(dsp.SampledSignal(emg, FS), imu, meta), envelope

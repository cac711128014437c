import numpy as np
import pytest

from emgforge import dataio, synthgen
from emgforge import signal as dsp
from emgforge.errors import ConfigError
from emgforge.metrics import cosine_sim

# Largest per-channel IMU noise std at which the peak detector still returns
# exactly n_reps peaks on the default profile (measured over seeds 0-9). The
# extracted envelope carries ~10% demodulation ripple from the noise carrier,
# so peak *placement* within a burst wanders; the count is what is stable.
PEAK_NOISE_THRESHOLD = 0.1
GYRO_Y = dataio.IMU_CHANNELS.index("gyro_y")


class TestDeterminism:
    def test_identical_seed_identical_recording(self):
        prof = synthgen.MotionProfile()
        rec_a, truth_a = synthgen.generate_recording(prof, seed=123)
        rec_b, truth_b = synthgen.generate_recording(prof, seed=123)
        assert np.array_equal(truth_a, truth_b)
        assert np.array_equal(rec_a.emg.samples, rec_b.emg.samples)
        assert np.array_equal(rec_a.imu, rec_b.imu)

    def test_different_seed_differs(self):
        prof = synthgen.MotionProfile()
        rec_a, _ = synthgen.generate_recording(prof, seed=1)
        rec_b, _ = synthgen.generate_recording(prof, seed=2)
        assert not np.array_equal(rec_a.emg.samples, rec_b.emg.samples)


class TestSegmentRecovery:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_seven_reps_give_seven_segments(self, seed):
        rec, _ = synthgen.generate_recording(synthgen.MotionProfile(), seed=seed)
        assert len(dataio.build_segments(rec)) == 7

    def test_other_rep_counts(self):
        for reps in (1, 3, 5):
            rec, _ = synthgen.generate_recording(
                synthgen.MotionProfile(n_reps=reps), seed=11
            )
            params = dataio.SegmentationParams(top_k=reps)
            assert len(dataio.build_segments(rec, params)) == reps


class TestGroundTruth:
    def test_noise_free_truth_is_function_of_gyro(self):
        prof = synthgen.MotionProfile(noise_std=0.0)
        rec, truth = synthgen.generate_recording(prof, seed=5)
        recomputed = synthgen.ground_truth_envelope(rec.imu[GYRO_Y])
        assert np.array_equal(recomputed, truth)

    def test_truth_recomputable_even_with_noise(self):
        prof = synthgen.MotionProfile(noise_std=0.05)
        rec, truth = synthgen.generate_recording(prof, seed=6)
        recomputed = synthgen.ground_truth_envelope(rec.imu[GYRO_Y])
        assert np.array_equal(recomputed, truth)

    def test_truth_is_causal_in_gyro(self):
        prof = synthgen.MotionProfile(noise_std=0.0)
        rec, truth = synthgen.generate_recording(prof, seed=7)
        gy = rec.imu[GYRO_Y].copy()
        cut = len(gy) // 2
        gy[cut:] += 500.0
        tampered = synthgen.ground_truth_envelope(gy)
        assert np.array_equal(tampered[:cut], truth[:cut])

    def test_truth_in_unit_interval_with_lag(self):
        prof = synthgen.MotionProfile()
        rec, truth = synthgen.generate_recording(prof, seed=8)
        assert np.all(truth >= 0.0) and np.all(truth <= 1.0)
        assert np.all(truth[: synthgen.LAG_SAMPLES] == 0.0)

    def test_peak_height_near_design_target(self):
        _, truth = synthgen.generate_recording(
            synthgen.MotionProfile(noise_std=0.0), seed=9
        )
        assert 0.8 <= truth.max() <= 1.0


class TestPipelineAgreement:
    def test_extracted_envelope_tracks_truth(self):
        prof = synthgen.MotionProfile(noise_std=0.0)
        rec, truth = synthgen.generate_recording(prof, seed=10)
        filtered = dsp.preprocess_emg(rec.emg)
        envelope = dsp.normalize_envelope(dsp.compute_envelope(filtered))
        assert cosine_sim(envelope.samples, truth) >= 0.98

    @pytest.mark.parametrize("seed", [0, 3, 6, 9])
    def test_peak_count_matches_reps_below_noise_threshold(self, seed):
        prof = synthgen.MotionProfile(noise_std=PEAK_NOISE_THRESHOLD)
        rec, _ = synthgen.generate_recording(prof, seed=seed)
        filtered = dsp.preprocess_emg(rec.emg)
        envelope = dsp.normalize_envelope(dsp.compute_envelope(filtered))
        peaks = dsp.detect_peaks(envelope, min_distance=150, top_k=prof.n_reps)
        assert len(peaks) == prof.n_reps


class TestProfileValidation:
    def test_bad_profiles_rejected(self):
        for n_reps in (0, -1):
            with pytest.raises(ConfigError, match="n_reps must be >= 1"):
                synthgen.MotionProfile(n_reps=n_reps)

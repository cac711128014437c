import csv
import dataclasses
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgforge import dataio, synthgen
from emgforge import signal as dsp
from emgforge.errors import (
    ConfigError,
    EmptyFileError,
    InsufficientDataError,
    NoActivityError,
    SchemaError,
)

FS = 1000.0


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def g17_texts(x):
    """The text of each value in `x` as dataio's "%.17g" kernel writes it."""
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in dataio._g17(x)]


def seven_column_rows(n, rng=None):
    rng = rng or np.random.default_rng(0)
    return rng.standard_normal((n, 7)).tolist()


class TestLoadRecording:
    def test_full_csv(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_csv(path, ["emg", "ax", "ay", "az", "gx", "gy", "gz"], seven_column_rows(5000))
        rec = dataio.load_recording(path)
        assert len(rec) == 5000
        assert rec.fs == FS

    def test_missing_column_names_channel(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_csv(
            path,
            ["emg", "ax", "ay", "az", "gx", "gy"],
            [r[:6] for r in seven_column_rows(10)],
        )
        with pytest.raises(SchemaError, match="gyro_z"):
            dataio.load_recording(path)

    def test_nonfinite_rows_dropped(self, tmp_path):
        """Bad cells in different columns drop their whole rows from every
        channel alike."""
        path = tmp_path / "rec.csv"
        rows = [[10 * t + c for c in range(7)] for t in range(20)]
        rows[5][2] = "nan"
        rows[11][0] = "inf"
        rows[14][6] = "abc"
        write_csv(path, ["emg", "ax", "ay", "az", "gx", "gy", "gz"], rows)
        rec = dataio.load_recording(path)
        kept = [t for t in range(20) if t not in (5, 11, 14)]
        for c, ch in enumerate(dataio.CHANNELS):
            assert getattr(rec, ch).samples.tolist() == [10 * t + c for t in kept]

    def test_repeated_unread_column_allowed(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_csv(path, ["emg", "ax", "ay", "az", "gx", "gy", "gz", "note", "note"], [range(9)])
        assert dataio.load_recording(path).gyro_z.samples.tolist() == [6.0]

    def test_comment_lines_ignored(self, tmp_path):
        path = tmp_path / "rec.csv"
        with open(path, "w") as fh:
            fh.write("# acquisition notes\n")
            fh.write("emg,ax,ay,az,gx,gy,gz\n")
            fh.write("# units: mV / m s^-2 / deg s^-1\n")
            fh.write("1,2,3,4,5,6,7\n")
            fh.write("8,9,10,11,12,13,14\n")
        rec = dataio.load_recording(path)
        assert len(rec) == 2
        assert rec.emg.samples.tolist() == [1.0, 8.0]

    def test_no_valid_rows(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_csv(path, ["emg", "ax", "ay", "az", "gx", "gy", "gz"], [["nan"] * 7])
        with pytest.raises(EmptyFileError):
            dataio.load_recording(path)

    def test_sidecar_metadata_loaded(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_csv(path, ["emg", "ax", "ay", "az", "gx", "gy", "gz"], seven_column_rows(5))
        (tmp_path / "rec.meta.json").write_text(
            '{"subject": "s07", "motion": "pronation", "day": 3, "fs": 2000.0}\n'
        )
        rec = dataio.load_recording(path)
        assert rec.meta == dataio.RecordingMeta("s07", "pronation", 3)
        assert rec.fs == 2000.0

    def test_sidecar_fs_disagreeing_with_caller_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_csv(path, ["emg", "ax", "ay", "az", "gx", "gy", "gz"], seven_column_rows(5))
        (tmp_path / "rec.meta.json").write_text('{"subject": "s07", "fs": 2000.0}\n')
        with pytest.raises(SchemaError, match=r"rec\.meta\.json: sidecar fs=2000 .* fs=1000"):
            dataio.load_recording(path, fs=1000.0)
        assert dataio.load_recording(path, fs=2000.0).fs == 2000.0

    @pytest.mark.parametrize(
        "key, value", [("subject", "../escaped"), ("motion", "up\\down"), ("subject", "a\x00b")]
    )
    def test_sidecar_path_separator_rejected(self, tmp_path, key, value):
        """Subject and motion become segment ids, which name eval's output
        files; a separator would write them outside their directory, and a
        NUL is no file name at all."""
        path = tmp_path / "rec.csv"
        write_csv(path, ["emg", "ax", "ay", "az", "gx", "gy", "gz"], seven_column_rows(5))
        (tmp_path / "rec.meta.json").write_text(json.dumps({key: value}) + "\n")
        with pytest.raises(SchemaError, match=f"rec\\.meta\\.json: {key} .* must not contain"):
            dataio.load_recording(path)

    def test_fs_defaults_without_caller_or_sidecar(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_csv(path, ["emg", "ax", "ay", "az", "gx", "gy", "gz"], seven_column_rows(5))
        assert dataio.load_recording(path).fs == dataio.DEFAULT_FS == 1000.0
        assert dataio.load_recording(path, fs=500.0).fs == 500.0

def reference_read_columns(path, wanted):
    """Row by row: a line after the header is kept when it is neither blank
    nor a comment and every wanted value parses with float() and is finite.
    Returns the kept columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if row and not row[0].lstrip().startswith("#"):
                header = [c.strip() for c in row]
                break
        indices = {ch: header.index(col) for ch, col in wanted.items()}
        values = {ch: [] for ch in wanted}
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                parsed = {ch: float(row[i]) for ch, i in indices.items()}
            except (IndexError, ValueError):
                continue
            if all(math.isfinite(v) for v in parsed.values()):
                for ch, v in parsed.items():
                    values[ch].append(v)
    return values


_HEADER = ["emg", "ax", "ay", "az", "gx", "gy", "gz"]
_cell_text = st.one_of(
    st.floats(width=64).map(repr),
    st.floats(width=64).map(lambda v: f"{v:.17g}"),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(
        ["nan", "-inf", "inf", "", " ", " 1.5 ", "1e400", "abc", "1_0", '"2.5"', '"1,5"', '" 7"']
    ),
    st.text(
        st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
        max_size=4,
    ),
)
_csv_line = st.one_of(
    st.lists(_cell_text, min_size=7, max_size=7).map(",".join),
    st.lists(_cell_text, min_size=0, max_size=9).map(",".join),
    st.sampled_from(["", "# comment", "  # indented comment", "#,1,2,3,4,5,6"]),
)


# Files the C parser may take: finite values as repr or "%.17g", LF or CRLF
# endings, with or without a final one. Now and then a blank,
# whitespace-only or comment line, or a CR ending, sends the file to the
# block parser.
_clean_value = st.floats(allow_nan=False, allow_infinity=False, width=64).flatmap(
    lambda v: st.sampled_from([repr(v), "%.17g" % v])
)
_clean_row = st.lists(_clean_value, min_size=7, max_size=7).map(",".join)
_clean_line = st.one_of(  # three rows to one other line
    _clean_row,
    _clean_row,
    _clean_row,
    st.sampled_from(["", "   ", "\t", "# note", "  # indented", "#,1,2,3,4,5,6"]),
)
_eol = st.sampled_from(["\n", "\r\n", "\r"])
_clean_file = st.one_of(
    st.builds(
        lambda lines, eol, final: eol.join([",".join(_HEADER), *lines]) + (eol if final else ""),
        st.lists(_clean_line, min_size=1, max_size=30),
        _eol,
        st.booleans(),
    ),
    # Mixed endings: a lone CR and a skipped line can leave the line count right.
    st.lists(st.tuples(_clean_line, _eol), min_size=1, max_size=30).map(
        lambda lines: ",".join(_HEADER) + "\n" + "".join(line + eol for line, eol in lines)
    ),
)
_WANTED = [dict(zip(dataio.CHANNELS, _HEADER)), {"emg": "emg"}, {"accel_x": "ax", "gyro_z": "gz"}]


class TestColumnarCsv:
    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(_csv_line, max_size=40),
        wanted=st.sampled_from(_WANTED),
        block=st.sampled_from([1, 3, 4096]),
    )
    def test_matches_row_by_row_reference(self, tmp_path_factory, lines, wanted, block):
        path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
        path.write_text("\n".join([",".join(_HEADER), *lines]) + "\n", encoding="utf-8")
        values = reference_read_columns(path, wanted)
        with mock.patch.object(dataio, "_CSV_BLOCK", block):
            if not values["emg" if "emg" in wanted else "accel_x"]:
                with pytest.raises(EmptyFileError):
                    dataio._read_columns(path, wanted)
                return
            columns = dataio._read_columns(path, wanted)
        assert columns.keys() == values.keys()
        for ch, v in values.items():
            assert columns[ch].dtype == np.float64
            assert columns[ch].tobytes() == np.array(v, dtype=np.float64).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        text=_clean_file,
        wanted=st.sampled_from(_WANTED),
        scan_bytes=st.sampled_from([1, 2, 7, 1 << 20]),
    )
    def test_clean_files_match_reference_on_both_parsers(
        self, tmp_path_factory, text, wanted, scan_bytes
    ):
        path = tmp_path_factory.getbasetemp() / "clean.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        values = reference_read_columns(path, wanted)
        for parser in ("c", "block"):
            with mock.patch.object(
                dataio, "_parse_in_c", dataio._parse_in_c if parser == "c" else lambda *a: None
            ), mock.patch.object(dataio, "_SCAN_BYTES", scan_bytes):
                if not next(iter(values.values())):
                    with pytest.raises(EmptyFileError):
                        dataio._read_columns(path, wanted)
                    continue
                columns = dataio._read_columns(path, wanted)
            assert columns.keys() == values.keys(), parser
            for ch, v in values.items():
                assert columns[ch].tobytes() == np.array(v, dtype=np.float64).tobytes(), parser

    @pytest.mark.parametrize(
        "body",
        [
            # A comment line whose wanted fields parse as numbers.
            "#,1,2,3,4,5,6\n0,1,2,3,4,5,6\n",
            # A lone CR adds a line that a blank line takes away again.
            "0,1,2,3,4,5,6\r7,8,9,10,11,12,13\n\n",
        ],
    )
    def test_lines_a_plain_split_reads_otherwise_go_to_the_block_parser(self, tmp_path, body):
        path = tmp_path / "mixed.csv"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(_HEADER) + "\n" + body)
        wanted = {"accel_x": "ax", "gyro_z": "gz"}
        values = reference_read_columns(path, wanted)
        with mock.patch.object(dataio, "_parse_block", wraps=dataio._parse_block) as block:
            columns = dataio._read_columns(path, wanted)
        assert block.called
        assert {ch: v.tolist() for ch, v in columns.items()} == values

    def test_quoted_comma_in_an_unused_column_splits_as_csv(self, tmp_path):
        # A plain split on "," would read gz as 6.0 here.
        path = tmp_path / "quoted.csv"
        path.write_text(",".join(_HEADER) + '\n0,1,"2,3",4,5,6,7\n')
        columns = dataio._read_columns(path, {"accel_x": "ax", "gyro_z": "gz"})
        assert columns["accel_x"].tolist() == [1.0] and columns["gyro_z"].tolist() == [7.0]

    def test_synthetic_recording_takes_the_c_parser(self, tmp_path):
        rec, _ = synthgen.generate_recording(synthgen.MotionProfile(n_reps=2), seed=3)
        path = tmp_path / "raw.csv"
        dataio.write_raw_recording(rec, path)
        with mock.patch.object(dataio, "_parse_block", side_effect=AssertionError("block parser ran")):
            columns = dataio._read_columns(path, dataio.DEFAULT_SCHEMA)
        for ch in dataio.CHANNELS:
            assert columns[ch].tobytes() == getattr(rec, ch).samples.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.floats(width=64),
            st.integers(0, 2**64 - 1).map(lambda u: float(np.uint64(u).view(np.float64))),
            st.floats(-1e16, 1e16),
        )
    )
    def test_percent_format_matches_format_spec(self, v):
        assert "%.17g" % v == f"{v:.17g}" == g17_texts(np.array([v]))[0]

    def test_g17_matches_percent_format_on_adversarial_values(self):
        rng = np.random.default_rng(11)
        # Exact ties: j / 2**(17 - e) with j odd has 18 significant digits,
        # the last a 5, whenever 10**e <= it < 10**(e + 1).
        ties = []
        for e in range(-6, 16):
            k = 17 - e
            lo, hi = math.ceil(10.0**e * 2**k), min(10 ** (e + 1) * 2**k, 2**53)
            ties.append(np.ldexp((rng.integers(lo // 2, hi // 2, 200) * 2 + 1).astype(float), -k))
        powers = np.array([float(f"1e{k}") for k in range(-330, 309)])
        edges = np.array([1e-6, 1e16, 1e-4, 1e17, 2.0**53])
        special = np.array([0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, np.inf])
        x = np.concatenate(
            [
                *ties,
                *(np.nextafter(v, t) for v in (powers, edges) for t in (-np.inf, np.inf)),
                powers,
                edges,
                special,
                np.arange(-3000.0, 3000.0),
                10.0 ** rng.uniform(-8, 18, 3000) * rng.choice([-1, 1], 3000),
            ]
        )
        x = np.concatenate([x, -x, [np.nan]])
        assert g17_texts(x) == ["%.17g" % v for v in x.tolist()]

    def test_g17_digits_never_round_up_to_a_power_of_ten(self):
        """The kernel has no carry: the largest double below each 10**k in its
        range, scaled to 17 integer digits, rounds below 10**17."""
        for k in range(-5, 17):
            below = float(Fraction(10) ** k)
            if Fraction(below) >= Fraction(10) ** k:
                below = math.nextafter(below, 0.0)
            assert round(Fraction(below) * Fraction(10) ** (17 - k)) < 10**17

    def test_segment_bytes_match_csv_writer(self, tmp_path):
        """Columnar writing gives the bytes of a row-by-row csv.writer."""
        n = 9
        rng = np.random.default_rng(3)
        target = rng.random(n)
        target[:5] = [0.0, -0.0, 5e-324, 1e-310, 1.0]
        imu = rng.standard_normal((6, n)) * 1e6
        imu[2, 3] = np.nan
        imu[4, 1] = -np.inf
        edge_values = [(40, target, imu, 's,"1"')]
        # Rows straddle blocks; the id is not ASCII and holds a NUL.
        lengths = (dataio._CSV_BLOCK + 300, dataio._CSV_BLOCK + 5)
        over_blocks = [
            (start, rng.random(rows) ** 9, rng.standard_normal((6, rows)) * 10.0**i, "s\x00ü,é")
            for i, (start, rows) in enumerate(zip((0, 5000), lengths))
        ]
        for shapes in (edge_values, over_blocks):
            segments = [
                dataio.MergedSegment(
                    bounds=dsp.SegmentBounds(start, start + target.size, start + 4),
                    target=target,
                    imu=imu,
                    meta=dataio.SegmentMeta(subject, "pronation", 2, rep, FS),
                )
                for rep, (start, target, imu, subject) in enumerate(shapes)
            ]
            path = tmp_path / "seg.csv"
            dataio.write_segments(segments, path)
            expected = tmp_path / "expected.csv"
            with open(expected, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(dataio._SEGMENT_HEADER)
                for seg in segments:
                    for i in range(len(seg)):
                        writer.writerow(
                            [seg.segment_id, seg.bounds.start + i, f"{seg.target[i]:.17g}"]
                            + [f"{seg.imu[c, i]:.17g}" for c in range(6)]
                        )
            assert path.read_bytes() == expected.read_bytes()

    def test_raw_bytes_match_csv_writer(self, tmp_path):
        rec, _ = synthgen.generate_recording(synthgen.MotionProfile(n_reps=1), seed=4)
        rec.emg.samples[:6] = [0.0, -0.0, 5e-324, 1e-7, 1e16, -1e300]
        path = tmp_path / "raw.csv"
        dataio.write_raw_recording(rec, path)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([dataio.DEFAULT_SCHEMA[ch] for ch in dataio.CHANNELS])
            for i in range(len(rec)):
                writer.writerow([f"{getattr(rec, ch).samples[i]:.17g}" for ch in dataio.CHANNELS])
        assert len(rec) > 2 * dataio._CSV_BLOCK
        assert path.read_bytes() == expected.read_bytes()


class TestBuildSegments:
    def test_seven_bursts_seven_segments(self):
        rec, _ = synthgen.generate_recording(synthgen.MotionProfile(), seed=0)
        segments = dataio.build_segments(rec)
        assert len(segments) == 7

    def test_target_and_imu_lengths_match(self):
        rec, _ = synthgen.generate_recording(synthgen.MotionProfile(n_reps=3), seed=1)
        for seg in dataio.build_segments(rec):
            assert seg.imu.shape == (6, len(seg.target))
            assert len(seg) == len(seg.bounds)
            assert np.all(seg.target >= 0.0) and np.all(seg.target <= 1.0)

    def test_flat_recording_no_activity(self):
        zeros = dsp.SampledSignal(np.zeros(2000), FS)
        rec = dataio.RawRecording(
            emg=zeros,
            accel_x=zeros,
            accel_y=zeros,
            accel_z=zeros,
            gyro_x=zeros,
            gyro_y=zeros,
            gyro_z=zeros,
        )
        with pytest.raises(NoActivityError):
            dataio.build_segments(rec)

    def test_segments_partition_recording(self):
        rec, _ = synthgen.generate_recording(synthgen.MotionProfile(), seed=2)
        segments = dataio.build_segments(rec)
        assert segments[0].bounds.start == 0
        assert segments[-1].bounds.end == len(rec)
        for a, b in zip(segments, segments[1:]):
            assert a.bounds.end == b.bounds.start


class TestSplit:
    def _segments(self, n):
        rng = np.random.default_rng(42)
        segs = []
        for i in range(n):
            t = rng.random(40)
            segs.append(
                dataio.MergedSegment(
                    bounds=dsp.SegmentBounds(0, 40, 10),
                    target=t,
                    imu=rng.standard_normal((6, 40)),
                    meta=dataio.SegmentMeta("s", "bicep_curl", 1, i, FS),
                )
            )
        return segs

    def test_twenty_segments(self):
        split = dataio.split_dataset(self._segments(20), 0.85, seed=3)
        assert len(split.train) == 17 and len(split.test) == 3

    def test_hundred_segments(self):
        split = dataio.split_dataset(self._segments(100), 0.85, seed=3)
        assert len(split.train) == 85 and len(split.test) == 15

    def test_same_seed_same_membership(self):
        segs = self._segments(20)
        a = dataio.split_dataset(segs, 0.85, seed=9)
        b = dataio.split_dataset(segs, 0.85, seed=9)
        assert [s.segment_id for s in a.train] == [s.segment_id for s in b.train]
        assert [s.segment_id for s in a.test] == [s.segment_id for s in b.test]

    def test_too_few_segments(self):
        with pytest.raises(InsufficientDataError):
            dataio.split_dataset(self._segments(1), 0.85, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 60), seed=st.integers(0, 999), frac=st.floats(0.05, 0.95))
    def test_partition_property(self, n, seed, frac):
        segs = self._segments(n)
        split = dataio.split_dataset(segs, frac, seed=seed)
        train_ids = {id(s) for s in split.train}
        test_ids = {id(s) for s in split.test}
        assert train_ids.isdisjoint(test_ids)
        assert len(train_ids | test_ids) == n
        assert abs(len(split.train) - frac * n) <= 1.0


class TestWindows:
    def _split(self, lengths, rng_seed=0):
        rng = np.random.default_rng(rng_seed)
        segs = []
        for i, n in enumerate(lengths):
            segs.append(
                dataio.MergedSegment(
                    bounds=dsp.SegmentBounds(0, n, min(5, n - 1)),
                    target=rng.random(n),
                    imu=rng.standard_normal((6, n)),
                    meta=dataio.SegmentMeta("s", "bicep_curl", 1, i, FS),
                )
            )
        return dataio.DatasetSplit(train=segs[:-1], test=segs[-1:], seed=0)

    def test_crops_are_contiguous_slices(self):
        split = self._split([3000, 2500, 2000, 400])
        for batch in dataio.make_windows(split, 1024, 4, seed=1):
            assert batch.inputs.shape[1:] == (6, 1024)
            assert batch.targets.shape[1:] == (1, 1024)
            for bi, seg_id in enumerate(batch.segment_ids):
                seg = next(s for s in split.train if s.segment_id == seg_id)
                win = batch.inputs[bi]
                found = False
                for start in range(len(seg) - 1024 + 1):
                    if np.array_equal(win, seg.imu[:, start : start + 1024]):
                        found = True
                        break
                assert found

    def test_short_segment_left_padded(self):
        split = self._split([2000, 800, 600])
        seen_short = False
        for batch in dataio.make_windows(split, 1024, 2, seed=2):
            for bi, seg_id in enumerate(batch.segment_ids):
                seg = next(s for s in split.train if s.segment_id == seg_id)
                if len(seg) == 800:
                    seen_short = True
                    assert np.all(batch.inputs[bi, :, :224] == 0.0)
                    assert np.all(batch.targets[bi, 0, :224] == 0.0)
                    assert np.array_equal(batch.inputs[bi, :, 224:], seg.imu)
                    assert np.array_equal(batch.targets[bi, 0, 224:], seg.target)
        assert seen_short

    def test_deterministic_per_seed_epoch(self):
        split = self._split([3000, 2500, 2000, 400])

        def collect(seed, epoch):
            return [
                (b.inputs.copy(), b.targets.copy(), list(b.segment_ids))
                for b in dataio.make_windows(split, 512, 3, seed=seed, epoch=epoch)
            ]

        a = collect(5, 2)
        b = collect(5, 2)
        assert len(a) == len(b)
        for (xa, ya, ia), (xb, yb, ib) in zip(a, b):
            assert np.array_equal(xa, xb) and np.array_equal(ya, yb) and ia == ib
        c = collect(5, 3)
        assert any(
            not np.array_equal(xa, xc) for (xa, _, _), (xc, _, _) in zip(a, c)
        )

    def test_targets_in_unit_interval_or_padding(self):
        split = self._split([1500, 900, 300])
        for batch in dataio.make_windows(split, 1024, 2, seed=3):
            assert np.all(batch.targets >= 0.0) and np.all(batch.targets <= 1.0)

    def test_never_yields_test_segments(self):
        split = self._split([2000, 1800, 1600, 1400])
        test_ids = {s.segment_id for s in split.test}
        for epoch in range(3):
            for batch in dataio.make_windows(split, 512, 2, seed=4, epoch=epoch):
                assert not test_ids.intersection(batch.segment_ids)

    def test_bad_params_rejected(self):
        split = self._split([2000, 1500])
        with pytest.raises(ConfigError):
            list(dataio.make_windows(split, 512, 0, seed=0))
        with pytest.raises(ConfigError):
            list(dataio.make_windows(split, 4096, 2, seed=0))


def read_segment_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """A segment CSV's id column and its [rows x 8] numeric columns, parsed
    with np.loadtxt rather than the writer's own csv module."""
    kwargs = dict(delimiter=",", skiprows=1, quotechar='"', comments=None)
    ids = np.loadtxt(path, usecols=0, dtype=str, ndmin=1, **kwargs)
    values = np.loadtxt(path, usecols=range(1, len(dataio._SEGMENT_HEADER)), ndmin=2, **kwargs)
    return ids, values


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestUnifiedDataset:
    def test_round_trip_bit_exact(self, tmp_path):
        rec, _ = synthgen.generate_recording(synthgen.MotionProfile(n_reps=4), seed=7)
        segments = dataio.build_segments(rec)
        path = tmp_path / "segments.csv"
        dataio.write_segments(segments, path)
        ids, values = read_segment_csv(path)
        info = json.loads((tmp_path / "segments.meta.json").read_text())
        assert info["fs"] == rec.fs
        assert len(info["segments"]) == len(segments)
        lo = 0
        for seg, entry in zip(segments, info["segments"]):
            rows = values[lo : lo + len(seg)]
            assert set(ids[lo : lo + len(seg)]) == {seg.segment_id} == {entry["segment_id"]}
            lo += len(seg)
            assert dsp.SegmentBounds(entry["start"], entry["end"], entry["peak"]) == seg.bounds
            meta = (entry["subject"], entry["motion"], entry["day"], entry["rep_index"], info["fs"])
            assert dataio.SegmentMeta(*meta) == seg.meta
            sample_idx = np.arange(seg.bounds.start, seg.bounds.end, dtype=np.float64)
            assert same_bits(rows[:, 0], sample_idx)
            assert same_bits(rows[:, 1], seg.target)
            assert same_bits(rows[:, 2:].T, seg.imu)
        assert lo == len(ids)

    def test_mixed_sample_rates_rejected_before_writing(self, tmp_path):
        rec, _ = synthgen.generate_recording(synthgen.MotionProfile(n_reps=2), seed=8)
        seg = dataio.build_segments(rec)[0]
        other = dataclasses.replace(seg, meta=dataclasses.replace(seg.meta, rep_index=9, fs=500.0))
        path = tmp_path / "segments.csv"
        with pytest.raises(SchemaError, match="sample rates"):
            dataio.write_segments([seg, other], path)
        assert not path.exists()

    def test_shared_segment_id_rejected_before_writing(self, tmp_path):
        segments = []
        for seed in (8, 9):  # two recordings without sidecars share the default meta
            rec, _ = synthgen.generate_recording(synthgen.MotionProfile(n_reps=2), seed=seed)
            path = tmp_path / f"raw{seed}.csv"
            dataio.write_raw_recording(rec, path)
            path.with_name(f"raw{seed}.meta.json").unlink()
            segments += dataio.build_segments(dataio.load_recording(path))
        out = tmp_path / "segments.csv"
        with pytest.raises(SchemaError, match="unknown_unknown_day0_rep00"):
            dataio.write_segments(segments, out)
        assert not out.exists()

    def test_raw_recording_round_trip(self, tmp_path):
        rec, _ = synthgen.generate_recording(synthgen.MotionProfile(n_reps=2), seed=9)
        path = tmp_path / "raw.csv"
        dataio.write_raw_recording(rec, path)
        loaded = dataio.load_recording(path)
        assert loaded.meta == rec.meta
        assert np.array_equal(loaded.emg.samples, rec.emg.samples)
        assert np.array_equal(loaded.imu_matrix(), rec.imu_matrix())

"""Recording ingestion, segment assembly, dataset split, and training windows.

Raw recordings are columnar CSV (header row, '#' comment lines dropped),
one EMG column plus six IMU columns. The EMG channel drives segmentation;
IMU channels are sliced with the same index ranges, and the result is a
list of merged segments that can round-trip through a unified segment CSV
with a JSON metadata sidecar.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import signal as dsp
from .errors import (
    ConfigError,
    DegenerateSignalError,
    EmptyFileError,
    EmptyInputError,
    InsufficientDataError,
    NoActivityError,
    SchemaError,
    TooShortError,
)

DEFAULT_FS = 1000.0

CHANNELS = ("emg", "accel_x", "accel_y", "accel_z", "gyro_x", "gyro_y", "gyro_z")
IMU_CHANNELS = CHANNELS[1:]

# Canonical channel -> default CSV column name.
DEFAULT_SCHEMA = {
    "emg": "emg",
    "accel_x": "ax",
    "accel_y": "ay",
    "accel_z": "az",
    "gyro_x": "gx",
    "gyro_y": "gy",
    "gyro_z": "gz",
}

MOTION_LABELS = ("bicep_curl", "tricep_extension", "supination", "pronation")


@dataclass(frozen=True)
class RecordingMeta:
    subject: str = "unknown"
    motion: str = "unknown"
    day: int = 0


@dataclass
class RawRecording:
    """Seven aligned channels sharing one sample rate."""

    emg: dsp.SampledSignal
    accel_x: dsp.SampledSignal
    accel_y: dsp.SampledSignal
    accel_z: dsp.SampledSignal
    gyro_x: dsp.SampledSignal
    gyro_y: dsp.SampledSignal
    gyro_z: dsp.SampledSignal

    meta: RecordingMeta = field(default_factory=RecordingMeta)

    def __post_init__(self):
        lengths = {ch: len(getattr(self, ch)) for ch in CHANNELS}
        if len(set(lengths.values())) != 1:
            raise SchemaError(f"channel lengths differ after alignment: {lengths}")
        rates = {getattr(self, ch).fs for ch in CHANNELS}
        if len(rates) != 1:
            raise SchemaError(f"channels carry different sample rates: {rates}")

    @property
    def fs(self) -> float:
        return self.emg.fs

    def __len__(self) -> int:
        return len(self.emg)

    def imu_matrix(self) -> np.ndarray:
        """[6 x T] array in IMU_CHANNELS order."""
        return np.stack([getattr(self, ch).samples for ch in IMU_CHANNELS])


# Data rows parsed or formatted per block: the row text held at once stays
# bounded.
_CSV_BLOCK = 1024
# Rows are formatted with "%.17g" % v, the same text as f"{v:.17g}", and end
# with csv.writer's default line terminator, so the bytes match csv.writer's.
_CSV_EOL = "\r\n"


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len("," + _CSV_EOL)]


def _cell(row: list, idx: int) -> float:
    """float(row[idx]), or nan where the row is short or the value unparseable."""
    try:
        return float(row[idx])
    except (IndexError, ValueError):
        return math.nan


def _parse_block(rows: list, indices: dict) -> dict:
    """The wanted columns of `rows` as float64; nan marks a short row or an
    unparseable value."""
    try:
        return {
            ch: np.array([row[idx] for row in rows], dtype=np.float64)
            for ch, idx in indices.items()
        }
    except (IndexError, ValueError):
        return {
            ch: np.array([_cell(row, idx) for row in rows], dtype=np.float64)
            for ch, idx in indices.items()
        }


# Bytes per read when a raw CSV is scanned for its line count.
_SCAN_BYTES = 1 << 20


def _data_lines(path: Path, header_lines: int) -> int | None:
    """The number of lines after the header, or None when the file holds a
    quote or a carriage return that does not end a CRLF: csv.reader may then
    split a line into other fields or lines than a plain split on ',' and
    '\\n' does."""
    newlines = 0
    tail = b""  # the previous chunk's last byte, to see a CRLF split between chunks
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN_BYTES):
            if b'"' in chunk:
                return None
            octets = np.frombuffer(tail + chunk, dtype=np.uint8)
            returns = np.flatnonzero(octets[:-1] == ord("\r"))
            if np.any(octets[returns + 1] != ord("\n")):
                return None
            newlines += np.count_nonzero(octets[len(tail) :] == ord("\n"))
            tail = chunk[-1:]
    if tail == b"\r":
        return None
    return newlines + (tail not in (b"", b"\n")) - header_lines


def _parse_in_c(path: Path, indices: dict, header_lines: int) -> dict | None:
    """The wanted columns parsed in C by np.loadtxt, or None unless they
    provably equal the block parser's result with no row dropped.

    That holds when loadtxt raises nothing, gives one row per line after the
    header, and every value is finite. loadtxt skips blank lines, so a blank
    line shows up in the row count. Column 0 is always parsed, so a comment
    or whitespace-only line fails the parse. Both parsers convert with the
    same string-to-double routine.
    """
    lines = _data_lines(path, header_lines)
    if not lines:
        return None
    usecols = sorted(set(indices.values()) | {0})
    try:
        with warnings.catch_warnings():
            # Lines that are all blank: the row count below rejects them.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(
                path, delimiter=",", skiprows=header_lines, usecols=usecols, comments=None, ndmin=2
            )
    except ValueError:
        return None
    if table.shape[0] != lines or not np.isfinite(table).all():
        return None
    return {ch: table[:, usecols.index(idx)].copy() for ch, idx in indices.items()}


def _read_columns(path, wanted: dict) -> tuple[dict, list[tuple[int, int]]]:
    """Parse the requested columns, dropping each row in which one of them is
    missing, unparseable or non-finite.

    Returns the columns and the dropped rows as (data row, line) pairs: every
    line after the header is a data row, counted from 0, and a blank or
    comment line is a dropped one; lines count from 1. A clean file is parsed
    in C in one call; any other goes through the block parser. A file that
    does not decode as text raises a SchemaError.
    """
    path = Path(path)
    try:
        return _parse_columns(path, wanted)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not {exc.encoding} text: {exc.reason}") from exc


def _parse_columns(path: Path, wanted: dict) -> tuple[dict, list[tuple[int, int]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = None
        for row in reader:
            if not row or (row[0].lstrip().startswith("#")):
                continue
            header = [c.strip() for c in row]
            break
        if header is None:
            raise EmptyFileError(f"{path} contains no header row")

        indices = {}
        for channel, column in wanted.items():
            if isinstance(column, int):
                if not 0 <= column < len(header):
                    raise SchemaError(
                        f"column index {column} for channel {channel!r} out of range in {path}"
                    )
                indices[channel] = column
            else:
                if column not in header:
                    raise SchemaError(
                        f"missing column {column!r} for channel {channel!r} in {path}"
                    )
                indices[channel] = header.index(column)

        columns = _parse_in_c(path, indices, reader.line_num)
        if columns is not None:
            return columns, []

        # A blank or comment line is a data row without values, so it is
        # dropped: skipping it uncounted would shift the file against the
        # other one in two-file mode.
        data_rows = (
            (row if row and not row[0].lstrip().startswith("#") else [], reader.line_num)
            for row in reader
        )
        parts: dict = {ch: [] for ch in wanted}
        dropped = []
        first = 0
        while block := list(itertools.islice(data_rows, _CSV_BLOCK)):
            columns = _parse_block([row for row, _ in block], indices)
            keep = np.logical_and.reduce([np.isfinite(v) for v in columns.values()])
            for ch, v in columns.items():
                parts[ch].append(v[keep])
            dropped += [(first + int(i), block[i][1]) for i in np.flatnonzero(~keep)]
            first += len(block)

    if first == len(dropped):
        raise EmptyFileError(f"{path} contains no valid data rows")
    return {ch: np.concatenate(v) for ch, v in parts.items()}, dropped


def _require_same_drops(emg_path, emg_dropped, imu_path, imu_dropped, rows: int) -> None:
    """Two-file mode: a row dropped from one file only would shift every later
    sample of that file against the other, so it is an error. Rows from `rows`
    on, past the end of the shorter file, are cut off anyway."""
    emg_rows, imu_rows = dict(emg_dropped), dict(imu_dropped)
    lone = {row for row in emg_rows.keys() ^ imu_rows.keys() if row < rows}
    if lone:
        row = min(lone)
        path, line = (emg_path, emg_rows[row]) if row in emg_rows else (imu_path, imu_rows[row])
        raise SchemaError(
            f"{path}: data row {row} (line {line}) is blank, a comment, or has a missing, "
            "unparseable or non-finite value but is kept in the other file; dropping it "
            "would shift the EMG against the IMU"
        )


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def load_recording(
    path,
    schema: dict | None = None,
    imu_path=None,
    fs: float | None = None,
    meta: RecordingMeta | None = None,
) -> RawRecording:
    """Load a recording from one CSV, or EMG and IMU from two files.

    `schema` maps canonical channel names (see CHANNELS) to column names or
    zero-based positions. Channels are truncated to the shortest length so
    slightly ragged acquisitions still align; no resampling is performed, so
    all channels must already share `fs`. A blank or comment line after the
    header, and a row with a missing, unparseable or non-finite value, is
    dropped; in two-file mode it must then be dropped from both files, or a
    SchemaError names it, unless it lies past the end of the shorter file.

    The sample rate is the caller's `fs`, else the sidecar's, else 1000 Hz;
    a sidecar `fs` that disagrees with the caller's raises a SchemaError.
    """
    path = Path(path)
    schema = dict(DEFAULT_SCHEMA if schema is None else schema)
    unknown = set(schema) - set(CHANNELS)
    if unknown:
        raise SchemaError(f"schema names unknown channels: {sorted(unknown)}")
    missing = set(CHANNELS) - set(schema)
    if missing:
        raise SchemaError(f"schema missing channels: {sorted(missing)}")

    if imu_path is None:
        columns, _ = _read_columns(path, schema)
    else:
        columns, emg_dropped = _read_columns(path, {"emg": schema["emg"]})
        imu_columns, imu_dropped = _read_columns(
            imu_path, {ch: schema[ch] for ch in IMU_CHANNELS}
        )
        rows = min(
            len(columns["emg"]) + len(emg_dropped), len(imu_columns["accel_x"]) + len(imu_dropped)
        )
        _require_same_drops(path, emg_dropped, imu_path, imu_dropped, rows)
        columns.update(imu_columns)

    shortest = min(len(v) for v in columns.values())
    columns = {ch: v[:shortest] for ch, v in columns.items()}

    if meta is None:
        sidecar = _sidecar_path(path)
        if sidecar.exists():
            raw = json.loads(sidecar.read_text())
            meta = RecordingMeta(
                subject=raw.get("subject", "unknown"),
                motion=raw.get("motion", "unknown"),
                day=int(raw.get("day", 0)),
            )
            if "fs" in raw:
                sidecar_fs = float(raw["fs"])
                if fs is not None and float(fs) != sidecar_fs:
                    raise SchemaError(
                        f"{sidecar}: sidecar fs={sidecar_fs:g} disagrees with the "
                        f"configured fs={fs:g}"
                    )
                fs = sidecar_fs
        else:
            meta = RecordingMeta()
    if fs is None:
        fs = DEFAULT_FS

    return RawRecording(
        **{ch: dsp.SampledSignal(columns[ch], fs) for ch in CHANNELS}, meta=meta
    )


def write_raw_recording(rec: RawRecording, path) -> None:
    """Write the 7-column raw CSV plus the metadata sidecar."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([DEFAULT_SCHEMA[ch] for ch in CHANNELS])
        row = ",".join(["%.17g"] * len(CHANNELS)) + _CSV_EOL
        for lo in range(0, len(rec), _CSV_BLOCK):
            columns = [getattr(rec, ch).samples[lo : lo + _CSV_BLOCK].tolist() for ch in CHANNELS]
            fh.writelines(row % r for r in zip(*columns))
    sidecar = _sidecar_path(path)
    sidecar.write_text(
        json.dumps(
            {
                "subject": rec.meta.subject,
                "motion": rec.meta.motion,
                "day": rec.meta.day,
                "fs": rec.fs,
            },
            indent=2,
        )
        + "\n"
    )


@dataclass(frozen=True)
class SegmentMeta:
    subject: str
    motion: str
    day: int
    rep_index: int
    fs: float


@dataclass
class MergedSegment:
    """One repetition: normalized envelope target plus aligned IMU slices."""

    bounds: dsp.SegmentBounds
    target: np.ndarray
    imu: np.ndarray
    meta: SegmentMeta

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=np.float64)
        self.imu = np.asarray(self.imu, dtype=np.float64)
        if self.imu.shape != (6, self.target.size):
            raise SchemaError(
                f"imu shape {self.imu.shape} does not match target length {self.target.size}"
            )
        if self.target.size != len(self.bounds):
            raise SchemaError("target length does not match segment bounds")

    @property
    def segment_id(self) -> str:
        m = self.meta
        return f"{m.subject}_{m.motion}_day{m.day}_rep{m.rep_index:02d}"

    def __len__(self) -> int:
        return self.target.size


@dataclass(frozen=True)
class SegmentationParams:
    min_distance: int = 150
    top_k: int = 7
    envelope_lp_hz: float = 6.0


def build_segments(
    rec: RawRecording,
    params: SegmentationParams | None = None,
    chain: dsp.FilterChainConfig | None = None,
) -> list[MergedSegment]:
    """Run the EMG pipeline and slice all channels with the peak-based bounds.

    preprocess (with `chain`, default chain when None) -> envelope ->
    normalize -> peak detection -> midpoint cuts; raises NoActivityError when
    the recording holds no usable contractions.
    """
    params = params or SegmentationParams()
    if len(rec) == 0:
        raise EmptyInputError("recording is empty")

    filtered = dsp.preprocess_emg(rec.emg, chain)
    envelope = dsp.compute_envelope(filtered, params.envelope_lp_hz)
    try:
        target = dsp.normalize_envelope(envelope)
    except DegenerateSignalError as exc:
        raise NoActivityError(f"recording has a flat envelope: {exc}") from exc
    try:
        peaks = dsp.detect_peaks(target, params.min_distance, params.top_k)
    except TooShortError as exc:
        raise NoActivityError(f"recording too short for peak detection: {exc}") from exc
    if peaks.size == 0:
        raise NoActivityError("no contraction peaks detected")

    bounds = dsp.segment_by_peaks(peaks, len(rec))
    imu = rec.imu_matrix()
    segments = []
    for i, b in enumerate(bounds):
        segments.append(
            MergedSegment(
                bounds=b,
                target=target.samples[b.start : b.end],
                imu=imu[:, b.start : b.end],
                meta=SegmentMeta(
                    subject=rec.meta.subject,
                    motion=rec.meta.motion,
                    day=rec.meta.day,
                    rep_index=i,
                    fs=rec.fs,
                ),
            )
        )
    return segments


@dataclass
class DatasetSplit:
    train: list[MergedSegment]
    test: list[MergedSegment]
    seed: int


def split_dataset(
    segments: list[MergedSegment], train_fraction: float = 0.85, seed: int = 0
) -> DatasetSplit:
    """Deterministic shuffled split; same seed gives identical membership.

    Train size is round(train_fraction * total), clamped so neither side
    is empty.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(segments)
    if n < 2:
        raise InsufficientDataError(f"need at least 2 segments to split, got {n}")
    n_train = int(round(train_fraction * n))
    n_train = min(max(n_train, 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    train = [segments[i] for i in perm[:n_train]]
    test = [segments[i] for i in perm[n_train:]]
    return DatasetSplit(train=train, test=test, seed=seed)


@dataclass
class WindowBatch:
    """Fixed-length training crops: inputs [B x 6 x L], targets [B x 1 x L]."""

    inputs: np.ndarray
    targets: np.ndarray
    crop_length: int
    segment_ids: list[str]


def make_windows(
    split: DatasetSplit,
    crop_length: int,
    batch_size: int,
    seed: int,
    epoch: int = 0,
    min_length: int | None = None,
) -> Iterator[WindowBatch]:
    """Yield one epoch of random contiguous crops from the training segments.

    Each segment contributes max(1, round(len/L)) crops so one epoch covers
    each segment once in expectation. Segments shorter than L are left-padded
    with zeros (input and target alike) to preserve causality. Deterministic
    for a given (seed, epoch).
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if min_length is not None and crop_length < min_length:
        raise ConfigError(
            f"crop_length {crop_length} is below the required minimum {min_length}"
        )
    if not split.train:
        raise InsufficientDataError("split has no training segments")
    longest = max(len(s) for s in split.train)
    if crop_length > longest:
        raise ConfigError(
            f"crop_length {crop_length} exceeds the longest training segment ({longest})"
        )

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(epoch,)))
    crops: list[tuple[int, int]] = []
    for si, seg in enumerate(split.train):
        n = len(seg)
        if n <= crop_length:
            crops.append((si, 0))
            continue
        count = max(1, int(round(n / crop_length)))
        for start in rng.integers(0, n - crop_length + 1, size=count):
            crops.append((si, int(start)))
    order = rng.permutation(len(crops))

    for lo in range(0, len(order), batch_size):
        chunk = [crops[i] for i in order[lo : lo + batch_size]]
        b = len(chunk)
        inputs = np.zeros((b, 6, crop_length))
        targets = np.zeros((b, 1, crop_length))
        ids = []
        for bi, (si, start) in enumerate(chunk):
            seg = split.train[si]
            n = len(seg)
            if n <= crop_length:
                inputs[bi, :, crop_length - n :] = seg.imu
                targets[bi, 0, crop_length - n :] = seg.target
            else:
                inputs[bi] = seg.imu[:, start : start + crop_length]
                targets[bi, 0] = seg.target[start : start + crop_length]
            ids.append(seg.segment_id)
        yield WindowBatch(inputs=inputs, targets=targets, crop_length=crop_length, segment_ids=ids)


# ---------------------------------------------------------------------------
# Unified segment dataset: one CSV of samples plus a JSON metadata sidecar.
# ---------------------------------------------------------------------------

_SEGMENT_HEADER = ("segment_id", "sample_idx", "emg_norm_env", "ax", "ay", "az", "gx", "gy", "gz")


def write_segments(segments: list[MergedSegment], path) -> None:
    """Serialize segments losslessly (17 significant digits per amplitude)."""
    if not segments:
        raise EmptyInputError("no segments to write")
    path = Path(path)
    row = ",%d" + ",%.17g" * 7 + _CSV_EOL
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(_SEGMENT_HEADER)
        for seg in segments:
            head = _csv_field(seg.segment_id)
            for lo in range(0, len(seg), _CSV_BLOCK):
                hi = lo + _CSV_BLOCK
                columns = [
                    range(seg.bounds.start + lo, seg.bounds.end),
                    seg.target[lo:hi].tolist(),
                    *seg.imu[:, lo:hi].tolist(),
                ]
                fh.writelines(head + row % r for r in zip(*columns))
    sidecar = _sidecar_path(path)
    sidecar.write_text(
        json.dumps(
            {
                "fs": segments[0].meta.fs,
                "segments": [
                    {
                        "segment_id": seg.segment_id,
                        "subject": seg.meta.subject,
                        "motion": seg.meta.motion,
                        "day": seg.meta.day,
                        "rep_index": seg.meta.rep_index,
                        "start": seg.bounds.start,
                        "end": seg.bounds.end,
                        "peak": seg.bounds.peak,
                    }
                    for seg in segments
                ],
            },
            indent=2,
        )
        + "\n"
    )


def read_segments(path) -> list[MergedSegment]:
    """Inverse of write_segments; reproduces every field bit-exactly."""
    path = Path(path)
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise SchemaError(f"segment metadata sidecar not found: {sidecar}")
    info = json.loads(sidecar.read_text())
    fs = float(info["fs"])

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != _SEGMENT_HEADER:
            raise SchemaError(f"unexpected segment CSV header: {header}")
        rows = list(reader)
    width = len(_SEGMENT_HEADER)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise SchemaError(f"{path}: data row {i} has {len(row)} fields, expected {width}")
    ids = np.array([row[0] for row in rows])
    values = np.array([[row[j] for row in rows] for j in range(2, width)], dtype=np.float64)

    segments = []
    for entry in info["segments"]:
        seg_id = entry["segment_id"]
        data = values[:, ids == seg_id]
        if data.shape[1] == 0:
            raise SchemaError(f"segment {seg_id!r} listed in sidecar but absent from CSV")
        bounds = dsp.SegmentBounds(int(entry["start"]), int(entry["end"]), int(entry["peak"]))
        if data.shape[1] != len(bounds):
            raise SchemaError(f"segment {seg_id!r} row count does not match its bounds")
        segments.append(
            MergedSegment(
                bounds=bounds,
                target=data[0],
                imu=data[1:],
                meta=SegmentMeta(
                    subject=entry["subject"],
                    motion=entry["motion"],
                    day=int(entry["day"]),
                    rep_index=int(entry["rep_index"]),
                    fs=fs,
                ),
            )
        )
    return segments

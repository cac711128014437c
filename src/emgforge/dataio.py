"""Recording ingestion, segment assembly, dataset split, and training windows.

A raw recording is one CSV: a header row naming DEFAULT_SCHEMA's EMG
column and six IMU columns, then one row per sample; '#' comment lines and
bad rows are dropped from every channel alike. In memory it is one EMG
signal and one [6 x T] IMU array. The EMG channel drives segmentation; the
IMU array is sliced with the same index ranges, and the result is a list of
merged segments. `write_segments` saves them as a
unified segment CSV with a JSON metadata sidecar, an output format that
nothing here reads back.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import warnings
from dataclasses import asdict, dataclass, field
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

# Canonical channel -> its raw CSV column name.
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
    """One EMG signal and the [6 x T] IMU samples taken with it, in
    IMU_CHANNELS order; the sample rate is the EMG signal's."""

    emg: dsp.SampledSignal
    imu: np.ndarray
    meta: RecordingMeta = field(default_factory=RecordingMeta)

    def __post_init__(self):
        self.imu = np.asarray(self.imu, dtype=np.float64)
        if self.imu.shape != (6, len(self.emg)):
            raise SchemaError(
                f"imu shape {self.imu.shape} does not match {len(self.emg)} EMG samples"
            )

    def __len__(self) -> int:
        return len(self.emg)

    def imu_matrix(self) -> np.ndarray:
        """`imu`; kept because `perfbench/workloads.py` calls it."""
        return self.imu


# Data rows parsed or formatted per block: the row text held at once stays
# bounded.
_CSV_BLOCK = 1024
# Every result float the package writes to a CSV is the text of "%.17g" % v
# (the same as f"{v:.17g}"), made a block at a time by `_g17` and
# `write_float_rows`.
# Segment and raw rows end with csv.writer's default line terminator, so
# their bytes match a row-by-row csv.writer's.
_CSV_EOL = "\r\n"


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len("," + _CSV_EOL)]


# ---------------------------------------------------------------------------
# "%.17g" for a whole array. CPython takes dtoa's bignum path for 17 digits
# (about 450 ns a value); this kernel gives the same text in numpy.
# ---------------------------------------------------------------------------

# Bytes per formatted value: "-2.2250738585072014e-308" is the longest text.
_G17_WIDTH = 24


def _split(v):
    """Veltkamp's split of float64 `v` into halves of at most 26 bits each,
    whose products are exact."""
    c = v * 134217729.0  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


# 10**s is an exact double for s <= 22, so Dekker's product by it gives
# |x| * 10**s exactly.
_POW10 = np.array([float(10**s) for s in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)
# "00" to "99" as one uint16 each.
_DIGIT_PAIRS = np.frombuffer("".join("%02d" % i for i in range(100)).encode(), np.uint16)

# Columns of a value's source row: its sign ('-' or NUL), its 17 digits,
# then the constant bytes a layout may take.
_SRC_TAIL = b".0e-\x000123456789"
_SRC_DOT, _SRC_ZERO, _SRC_E, _SRC_MINUS, _SRC_NUL, _SRC_EXP_DIGITS = range(18, 24)
_SRC_WIDTH = 18 + len(_SRC_TAIL)


def _g_layout(exp10: int, sig: int) -> list[int]:
    """Source columns of the "%.17g" text of a value whose 17 digits have
    decimal exponent `exp10` in [-6, 15] and `sig` significant digits before
    the trailing zeros, NUL-padded to _G17_WIDTH."""
    digits = list(range(1, 1 + sig))
    if exp10 >= 0:  # integer digits (trailing zeros kept), then any fraction
        text = [0, *range(1, exp10 + 2)]
        if sig > exp10 + 1:
            text += [_SRC_DOT, *range(exp10 + 2, sig + 1)]
    elif exp10 >= -4:  # 0.000ddd
        text = [0, _SRC_ZERO, _SRC_DOT, *[_SRC_ZERO] * (-exp10 - 1), *digits]
    else:  # d.ddde-0X
        text = [0, 1, *([_SRC_DOT, *digits[1:]] if sig > 1 else [])]
        text += [_SRC_E, _SRC_MINUS, _SRC_EXP_DIGITS, _SRC_EXP_DIGITS - exp10]
    return text + [_SRC_NUL] * (_G17_WIDTH - len(text))


# One layout per (exponent + 6) * 17 + (significant digits - 1).
_G_LAYOUTS = np.array([_g_layout(x, s) for x in range(-6, 16) for s in range(1, 18)], np.intp)


def _times_pow10(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**s exactly, as p + e with p the rounded product (Dekker's
    TwoProduct, no FMA needed)."""
    p = a * _POW10[s]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[s], _POW10_LO[s]
    e = a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    return p, e


def _g17(x: np.ndarray) -> np.ndarray:
    """[len(x) x _G17_WIDTH] uint8: row i, its NUL bytes dropped, is the
    ASCII of "%.17g" % x[i].

    For 1e-6 < |x| < 1e16 the 17 digits are D = round-half-even(|x| * 10**s),
    s = 16 - floor(log10 |x|) in [1, 22], so D lies in [1e16, 1e17). The
    product is exact as p + e, where p >= 1e16 is an even integer; so
    D = p + rint(e), ties included. Zeros, non-finite values, subnormals and
    the rest of the range take Python's own "%.17g".
    """
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e16)  # False for nan
    slow = np.flatnonzero(~fast)
    negative = x < 0
    if slow.size:
        a, negative = a[fast], negative[fast]
    m = a.size

    # The decimal exponent. log10 can be one off near a power of ten, so the
    # exact product decides: |x| * 10**s must lie in [1e16, 1e17).
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    np.clip(exp10, -6, 15, out=exp10)
    p, e = _times_pow10(a, 16 - exp10)
    step = ((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.int64)
    step -= (p < 1e16) | ((p == 1e16) & (e < 0))
    moved = np.flatnonzero(step)
    if moved.size:
        exp10[moved] += step[moved]
        p[moved], e[moved] = _times_pow10(a[moved], 16 - exp10[moved])
    # p is even, so rint(e) rounds p + e half to even. Nothing rounds up to
    # 10**17: in range, the double below each power of ten scales to at most
    # 1e17 - 8.
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)

    # Eight digit pairs after the leading digit.
    upper = digits // 10**8
    lead = upper // 10**8
    halves = np.empty((m, 2), np.int32)
    halves[:, 0] = upper - lead * 10**8
    halves[:, 1] = digits - upper * 10**8
    hi = halves // 10**4
    quads = np.stack([hi, halves - hi * 10**4], axis=2)
    hi = quads // 100
    pairs = np.stack([hi, quads - hi * 100], axis=3).reshape(m, 8)

    src = np.empty((m, _SRC_WIDTH), np.uint8)
    src[:, 0] = negative
    src[:, 0] *= ord("-")
    src[:, 1] = lead + ord("0")
    src[:, 2:18] = _DIGIT_PAIRS.take(pairs).view(np.uint8)
    src[:, 18:] = np.frombuffer(_SRC_TAIL, np.uint8)
    sig = 17 - np.argmax(src[:, 17:0:-1] != ord("0"), axis=1)  # before trailing zeros
    layout = _G_LAYOUTS.take((exp10 + 6) * 17 + sig - 1, axis=0)
    layout += np.arange(0, m * _SRC_WIDTH, _SRC_WIDTH)[:, None]
    text = src.ravel().take(layout)
    if not slow.size:
        return text
    out = np.empty((x.size, _G17_WIDTH), np.uint8)
    out[fast] = text
    fallback = ["%.17g" % v for v in x[slow].tolist()]
    out[slow] = np.array(fallback, dtype=f"S{_G17_WIDTH}").view(np.uint8).reshape(-1, _G17_WIDTH)
    return out


def write_float_rows(fh, columns, head: str = "", eol: str = _CSV_EOL) -> None:
    """Write one CSV row per index of the equal-length `columns` to the text
    file `fh`: the text field `head` as csv.writer writes it (nothing when
    empty), then each value as "%.17g" % v gives it, comma-separated, then
    `eol`.

    An integer column is exact as float64 below 2**53, and there its
    "%.17g" text is its "%d" text. Rows are formatted _CSV_BLOCK at a time.
    """
    fh.flush()
    head_bytes = np.frombuffer(_csv_field(head).encode(fh.encoding, fh.errors), np.uint8)
    eol_bytes = np.frombuffer(eol.encode("ascii"), np.uint8)
    h = head_bytes.size
    width = h + len(columns) * (1 + _G17_WIDTH) + eol_bytes.size
    for lo in range(0, len(columns[0]), _CSV_BLOCK):
        values = np.stack([c[lo : lo + _CSV_BLOCK] for c in columns], axis=1)
        n = len(values)
        rows = np.empty((n, width), np.uint8)
        rows[:, :h] = head_bytes
        fields = rows[:, h : width - eol_bytes.size].reshape(n, len(columns), 1 + _G17_WIDTH)
        fields[:, :, 0] = ord(",")
        fields[:, :, 1:] = _g17(values.ravel()).reshape(n, len(columns), _G17_WIDTH)
        if not h:  # the first field starts the row
            fields[:, 0, 0] = 0
        rows[:, width - eol_bytes.size :] = eol_bytes
        keep = rows != 0  # drop the fields' NUL padding, keep the head as it is
        keep[:, :h] = True
        fh.buffer.write(rows[keep])


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


def _read_columns(path, wanted: dict) -> dict:
    """Parse the requested columns, dropping each blank or comment line after
    the header and each row in which one of them is missing, unparseable or
    non-finite, from every column alike.

    A clean file is parsed in C in one call; any other goes through the block
    parser. A file that does not decode as text raises a SchemaError.
    """
    path = Path(path)
    try:
        return _parse_columns(path, wanted)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not {exc.encoding} text: {exc.reason}") from exc


def _parse_columns(path: Path, wanted: dict) -> dict:
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
            count = header.count(column)
            if count != 1:  # a repeated name could mean either column
                where = "is missing from" if not count else f"appears {count} times in"
                raise SchemaError(
                    f"column {column!r} for channel {channel!r} {where} the header of {path}"
                )
            indices[channel] = header.index(column)

        columns = _parse_in_c(path, indices, reader.line_num)
        if columns is not None:
            return columns

        data_rows = (row for row in reader if row and not row[0].lstrip().startswith("#"))
        parts: dict = {ch: [] for ch in wanted}
        kept = 0
        while block := list(itertools.islice(data_rows, _CSV_BLOCK)):
            columns = _parse_block(block, indices)
            keep = np.logical_and.reduce([np.isfinite(v) for v in columns.values()])
            for ch, v in columns.items():
                parts[ch].append(v[keep])
            kept += np.count_nonzero(keep)

    if not kept:
        raise EmptyFileError(f"{path} contains no valid data rows")
    return {ch: np.concatenate(v) for ch, v in parts.items()}


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def _write_sidecar(path: Path, info: dict) -> None:
    _sidecar_path(path).write_text(json.dumps(info, indent=2) + "\n")


def _read_sidecar(sidecar: Path) -> dict:
    """A `.meta.json` sidecar's JSON object; a SchemaError names one that is not."""
    try:
        raw = json.loads(sidecar.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise SchemaError(f"cannot parse {sidecar}: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{sidecar}: expected a JSON object, got {type(raw).__name__}")
    return raw


def json_is(value, kind: type) -> bool:
    """Whether a parsed JSON `value` has type `kind`: an int is a float, a bool neither."""
    allowed = (int, float) if kind is float else kind
    return isinstance(value, allowed) and not isinstance(value, bool)


def _sidecar_value(raw: dict, key: str, kind: type, default, sidecar):
    """`raw[key]` (or `default`) as `kind`; a SchemaError if its JSON type is
    not `kind`. `sidecar` names the source."""
    value = raw.get(key, default)
    if not json_is(value, kind):
        raise SchemaError(f"{sidecar}: {key} must be a JSON {kind.__name__}, got {value!r}")
    return kind(value)


def load_recording(path, fs: float | None = None) -> RawRecording:
    """Load a recording from one CSV whose header names DEFAULT_SCHEMA's
    columns; a missing or repeated one raises a SchemaError.

    A blank or comment line after the header, and a row with a missing,
    unparseable or non-finite value in any channel, is dropped from every
    channel alike. No resampling is performed.

    The sample rate is the caller's `fs`, else the sidecar's, else 1000 Hz;
    a sidecar `fs` that disagrees with the caller's raises a SchemaError, and
    so does a sidecar subject or motion holding a path separator or a NUL.
    """
    path = Path(path)
    columns = _read_columns(path, DEFAULT_SCHEMA)

    meta = RecordingMeta()
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        raw = _read_sidecar(sidecar)
        meta = RecordingMeta(
            subject=_sidecar_value(raw, "subject", str, "unknown", sidecar),
            motion=_sidecar_value(raw, "motion", str, "unknown", sidecar),
            day=_sidecar_value(raw, "day", int, 0, sidecar),
        )
        for key, value in (("subject", meta.subject), ("motion", meta.motion)):
            # Segment ids name output files, and no file name holds a NUL.
            if "/" in value or "\\" in value or "\x00" in value:
                raise SchemaError(f"{sidecar}: {key} {value!r} must not contain /, \\ or a NUL")
        if "fs" in raw:
            sidecar_fs = _sidecar_value(raw, "fs", float, None, sidecar)
            if fs is not None and float(fs) != sidecar_fs:
                raise SchemaError(
                    f"{sidecar}: sidecar fs={sidecar_fs:g} disagrees with the "
                    f"configured fs={fs:g}"
                )
            fs = sidecar_fs
    if fs is None:
        fs = DEFAULT_FS

    imu = np.stack([columns[ch] for ch in IMU_CHANNELS])
    return RawRecording(dsp.SampledSignal(columns["emg"], fs), imu, meta)


def write_raw_recording(rec: RawRecording, path) -> None:
    """Write the 7-column raw CSV plus the metadata sidecar."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([DEFAULT_SCHEMA[ch] for ch in CHANNELS])
        write_float_rows(fh, [rec.emg.samples, *rec.imu])
    _write_sidecar(path, {**asdict(rec.meta), "fs": rec.emg.fs})


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

    def __post_init__(self):
        dsp.check_peak_spacing(self.min_distance, self.top_k)


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
    segments = []
    for i, b in enumerate(bounds):
        segments.append(
            MergedSegment(
                bounds=b,
                target=target.samples[b.start : b.end],
                imu=rec.imu[:, b.start : b.end],
                meta=SegmentMeta(
                    subject=rec.meta.subject,
                    motion=rec.meta.motion,
                    day=rec.meta.day,
                    rep_index=i,
                    fs=rec.emg.fs,
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
    segment_ids: list[str]


def make_windows(
    split: DatasetSplit,
    crop_length: int,
    batch_size: int,
    seed: int,
    epoch: int = 0,
) -> Iterator[WindowBatch]:
    """Yield one epoch of random contiguous crops from the training segments.

    Each segment contributes max(1, round(len/L)) crops so one epoch covers
    each segment once in expectation. Segments shorter than L are left-padded
    with zeros (input and target alike) to preserve causality. Deterministic
    for a given (seed, epoch).
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
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
        yield WindowBatch(inputs=inputs, targets=targets, segment_ids=ids)


# ---------------------------------------------------------------------------
# Unified segment dataset: one CSV of samples plus a JSON metadata sidecar.
# ---------------------------------------------------------------------------

_SEGMENT_HEADER = ("segment_id", "sample_idx", "emg_norm_env", "ax", "ay", "az", "gx", "gy", "gz")


def check_unique_ids(segments: list[MergedSegment]) -> None:
    """Raise SchemaError if two segments share an id, which names their rows and files."""
    seen = set()
    for seg in segments:
        if seg.segment_id in seen:
            raise SchemaError(f"two segments share the id {seg.segment_id!r}")
        seen.add(seg.segment_id)


def write_segments(segments: list[MergedSegment], path) -> None:
    """Serialize segments losslessly ("%.17g" per amplitude, by `write_float_rows`).

    The sidecar holds one sample rate and the CSV tells rows apart by segment
    id alone, so segments with differing rates or a shared id raise a
    SchemaError before anything is written.
    """
    if not segments:
        raise EmptyInputError("no segments to write")
    rates = {seg.meta.fs for seg in segments}
    if len(rates) > 1:
        raise SchemaError(f"segments carry different sample rates: {sorted(rates)}")
    check_unique_ids(segments)
    path = Path(path)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(_SEGMENT_HEADER)
        for seg in segments:
            sample_idx = np.arange(seg.bounds.start, seg.bounds.end, dtype=np.float64)
            write_float_rows(fh, [sample_idx, seg.target, *seg.imu], seg.segment_id)
    entries = [
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
    ]
    _write_sidecar(path, {"fs": segments[0].meta.fs, "segments": entries})

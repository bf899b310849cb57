"""Binary containers for epoched EEG and model checkpoints.

Both formats are little-endian and platform independent:

Epoch container ("ADS3"):
    magic "ADS3" | u16 version=1 | u32 n_trials | u16 n_channels |
    u32 n_samples | f32 fs | n_trials x u8 label |
    n_channels x 8-byte space-padded ASCII channel name |
    f32 data, [trial][channel][sample] order.

Checkpoint ("ADSW"):
    magic "ADSW" | u16 version=1 | u32 n_entries |
    per entry: u16 name_len | name | u8 ndim | u32 dims... | f32 values... |
    u32 n_metadata | per item: u16 key_len | key | u16 value_len | value.

Values are stored as 32-bit floats regardless of the precision used for
computation; round-trips of float32 payloads are bit-exact.
"""

from __future__ import annotations

import codecs
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

EPOCH_MAGIC = b"ADS3"
CKPT_MAGIC = b"ADSW"
FORMAT_VERSION = 1
N_CLASSES = 4
NAME_FIELD = 8


class FormatError(ValueError):
    """Malformed or inconsistent container file."""


def _ascii_name(name: str) -> bytes:
    raw = name.encode("ascii")
    if not 0 < len(raw) <= NAME_FIELD:
        raise FormatError(f"channel name {name!r} must be 1..{NAME_FIELD} ASCII bytes")
    return raw.ljust(NAME_FIELD, b" ")


@dataclass
class EpochSet:
    """Labeled fixed-length multichannel epochs, microvolts, float32."""

    data: np.ndarray            # [n_trials, n_channels, n_samples]
    labels: np.ndarray          # [n_trials] class index
    fs: float                   # sampling rate, Hz
    channel_names: tuple[str, ...]

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint8)
        self.channel_names = tuple(str(n) for n in self.channel_names)
        self.validate()

    def validate(self):
        if self.data.ndim != 3:
            raise FormatError("data must be [trial, channel, sample]")
        n_trials, n_channels, _ = self.data.shape
        if self.labels.shape != (n_trials,):
            raise FormatError("label count does not match trial count")
        if np.any(self.labels >= N_CLASSES):
            raise FormatError(f"labels must be < {N_CLASSES}")
        if len(self.channel_names) != n_channels:
            raise FormatError("channel name count does not match channel count")
        if len(set(n.lower() for n in self.channel_names)) != n_channels:
            raise FormatError("channel names must be unique")
        if not self.fs > 0:
            raise FormatError("fs must be positive")

    @property
    def n_trials(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def n_samples(self) -> int:
        return self.data.shape[2]


@dataclass
class ModelCheckpoint:
    """Named float32 tensors plus flat string metadata."""

    entries: list[tuple[str, tuple[int, ...], np.ndarray]] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)

    def validate(self):
        seen = set()
        for name, dims, values in self.entries:
            if name in seen:
                raise FormatError(f"duplicate entry name {name!r}")
            seen.add(name)
            expected = 1
            for d in dims:
                expected *= int(d)
            if expected != values.size:
                raise FormatError(
                    f"entry {name!r}: product of dims {dims} != value count {values.size}"
                )


def atomic_write(path, *parts) -> None:
    """Write the parts (text as UTF-8, or any contiguous buffer such as
    bytes or an array) one after another to a temporary file beside path,
    then rename it over path. The file gets the mode a plain open() would
    give: 0o666 minus the umask."""
    umask = os.umask(0)
    os.umask(umask)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ads3d-")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            for part in parts:
                fh.write(part.encode("utf-8") if isinstance(part, str) else part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_epochset(epochs: EpochSet, path) -> None:
    epochs.validate()
    n_trials, n_channels, n_samples = epochs.data.shape
    head = struct.pack(
        "<4sHIHIf", EPOCH_MAGIC, FORMAT_VERSION, n_trials, n_channels,
        n_samples, float(epochs.fs),
    )
    atomic_write(path, head, epochs.labels,
                 *(_ascii_name(n) for n in epochs.channel_names),
                 np.ascontiguousarray(epochs.data, dtype="<f4"))


# Bytes of a text field read and decoded at a time.
_TEXT_PIECE = 4096


class _Reader:
    """Reads a container front to back. Every request is checked against
    the bytes left in the file before anything is allocated for it."""

    def __init__(self, fh):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size

    def _claim(self, n: int) -> None:
        if n > self.left:
            raise FormatError("truncated payload")
        self.left -= n

    def take(self, n: int) -> bytes:
        self._claim(n)
        out = self.fh.read(n)
        if len(out) != n:
            raise FormatError("truncated payload")
        return out

    def text(self, n: int, encoding: str) -> str:
        """n bytes of text, decoded in pieces of _TEXT_PIECE bytes, so a
        field that fails to decode never holds more than one piece."""
        self._claim(n)
        decoder = codecs.getincrementaldecoder(encoding)()
        parts = []
        try:
            while n:
                piece = self.fh.read(min(n, _TEXT_PIECE))
                if not piece:
                    raise FormatError("truncated payload")
                n -= len(piece)
                parts.append(decoder.decode(piece, final=not n))
        except UnicodeDecodeError as err:
            raise FormatError(f"undecodable text: {err}") from None
        return "".join(parts)

    def array(self, count: int, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        self._claim(count * dtype.itemsize)
        out = np.empty(count, dtype=dtype)
        if self.fh.readinto(out) != out.nbytes:
            raise FormatError("truncated payload")
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def done(self):
        if self.left:
            raise FormatError("trailing bytes after payload")


def read_epochset(path) -> EpochSet:
    with open(path, "rb") as fh:
        r = _Reader(fh)
        magic, version, n_trials, n_channels, n_samples, fs = r.unpack("4sHIHIf")
        if magic != EPOCH_MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version}")
        labels = r.array(n_trials, np.uint8)
        names = tuple(r.text(NAME_FIELD, "ascii").rstrip(" ") for _ in range(n_channels))
        data = r.array(n_trials * n_channels * n_samples, "<f4")
        r.done()
    data = data.reshape(n_trials, n_channels, n_samples)
    return EpochSet(data=data, labels=labels, fs=fs, channel_names=names)


def write_checkpoint(ckpt: ModelCheckpoint, path) -> None:
    ckpt.validate()
    parts = [struct.pack("<4sHI", CKPT_MAGIC, FORMAT_VERSION, len(ckpt.entries))]
    for name, dims, values in ckpt.entries:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", len(dims)))
        parts.append(struct.pack(f"<{len(dims)}I", *dims))
        parts.append(np.ascontiguousarray(values, dtype="<f4"))
    parts.append(struct.pack("<I", len(ckpt.metadata)))
    for key, value in ckpt.metadata.items():
        for s in (key, value):
            raw = str(s).encode("utf-8")
            parts.append(struct.pack("<H", len(raw)))
            parts.append(raw)
    atomic_write(path, *parts)


def read_checkpoint(path) -> ModelCheckpoint:
    with open(path, "rb") as fh:
        r = _Reader(fh)
        magic, version, n_entries = r.unpack("4sHI")
        if magic != CKPT_MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version}")
        entries = []
        for _ in range(n_entries):
            (name_len,) = r.unpack("H")
            name = r.text(name_len, "utf-8")
            (ndim,) = r.unpack("B")
            dims = r.unpack(f"{ndim}I")
            count = 1
            for d in dims:
                count *= d
            entries.append((name, dims, r.array(count, "<f4")))
        (n_meta,) = r.unpack("I")
        metadata = {}
        for _ in range(n_meta):
            (klen,) = r.unpack("H")
            key = r.text(klen, "utf-8")
            (vlen,) = r.unpack("H")
            metadata[key] = r.text(vlen, "utf-8")
        r.done()
    ckpt = ModelCheckpoint(entries=entries, metadata=metadata)
    ckpt.validate()
    return ckpt

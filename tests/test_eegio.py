import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ads3d import eegio


def make_set(n_trials=3, n_channels=2, n_samples=4, fill=0.0):
    data = np.full((n_trials, n_channels, n_samples), fill, dtype=np.float32)
    labels = np.arange(n_trials) % 4
    names = tuple(f"C{i}" for i in range(n_channels))
    return eegio.EpochSet(data=data, labels=labels, fs=500.0, channel_names=names)


def test_zero_epochset_file_size(tmp_path):
    path = tmp_path / "zero.ads3"
    eegio.write_epochset(make_set(1, 2, 4), path)
    header = 4 + 2 + 4 + 2 + 4 + 4
    expected = header + 1 + 2 * 8 + 1 * 2 * 4 * 4
    assert path.stat().st_size == expected
    back = eegio.read_epochset(path)
    assert np.array_equal(back.data, np.zeros((1, 2, 4), dtype=np.float32))


def test_large_roundtrip_checksum(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((200, 64, 1001)).astype(np.float32)
    es = eegio.EpochSet(data=data, labels=rng.integers(0, 4, 200),
                        fs=250.0, channel_names=[f"ch{i}" for i in range(64)])
    path = tmp_path / "big.ads3"
    eegio.write_epochset(es, path)
    back = eegio.read_epochset(path)
    assert hashlib.sha256(back.data.tobytes()).digest() == \
        hashlib.sha256(es.data.tobytes()).digest()
    assert back.channel_names == es.channel_names
    assert np.array_equal(back.labels, es.labels)
    assert back.fs == es.fs


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ads3"
    eegio.write_epochset(make_set(), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(raw)
    with pytest.raises(eegio.FormatError, match="bad magic"):
        eegio.read_epochset(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.ads3"
    eegio.write_epochset(make_set(), path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(eegio.FormatError, match="truncated"):
        eegio.read_epochset(path)


def test_label_out_of_range_rejected():
    with pytest.raises(eegio.FormatError, match="labels"):
        eegio.EpochSet(data=np.zeros((1, 1, 1), dtype=np.float32),
                       labels=np.array([4]), fs=1.0, channel_names=("a",))


def test_duplicate_channel_names_rejected():
    with pytest.raises(eegio.FormatError, match="unique"):
        eegio.EpochSet(data=np.zeros((1, 2, 1), dtype=np.float32),
                       labels=np.array([0]), fs=1.0, channel_names=("A", "a"))


@settings(max_examples=25, deadline=None)
@given(
    n_trials=st.integers(1, 6),
    n_channels=st.integers(1, 8),
    n_samples=st.integers(1, 30),
    seed=st.integers(0, 2**31),
)
def test_epochset_roundtrip_property(tmp_path_factory, n_trials, n_channels,
                                     n_samples, seed):
    rng = np.random.default_rng(seed)
    es = eegio.EpochSet(
        data=rng.standard_normal((n_trials, n_channels, n_samples)).astype(np.float32),
        labels=rng.integers(0, 4, n_trials),
        fs=float(rng.uniform(1, 1000)),
        channel_names=[f"c{i}" for i in range(n_channels)],
    )
    path = tmp_path_factory.mktemp("rt") / "x.ads3"
    eegio.write_epochset(es, path)
    back = eegio.read_epochset(path)
    assert np.array_equal(back.data, es.data)
    assert np.array_equal(back.labels, es.labels)
    assert np.float32(es.fs) == np.float32(back.fs)


def test_empty_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "empty.adsw"
    eegio.write_checkpoint(eegio.ModelCheckpoint(), path)
    back = eegio.read_checkpoint(path)
    assert back.entries == [] and back.metadata == {}


def test_table_sized_entry_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.standard_normal(10 * 1 * 4 * 4 * 125).astype(np.float32)
    ckpt = eegio.ModelCheckpoint(
        entries=[("conv.a1.weight", (10, 1, 4, 4, 125), values)],
        metadata={"seed": "7", "loss": "0.25"},
    )
    path = tmp_path / "w.adsw"
    eegio.write_checkpoint(ckpt, path)
    back = eegio.read_checkpoint(path)
    name, dims, got = back.entries[0]
    assert name == "conv.a1.weight" and dims == (10, 1, 4, 4, 125)
    assert np.array_equal(got, values)
    assert back.metadata == {"seed": "7", "loss": "0.25"}


def test_dim_mismatch_rejected(tmp_path):
    ckpt = eegio.ModelCheckpoint(
        entries=[("w", (2, 3), np.zeros(5, dtype=np.float32))])
    with pytest.raises(eegio.FormatError, match="dims"):
        eegio.write_checkpoint(ckpt, tmp_path / "bad.adsw")


def test_unknown_checkpoint_version(tmp_path):
    path = tmp_path / "v.adsw"
    eegio.write_checkpoint(eegio.ModelCheckpoint(), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(raw)
    with pytest.raises(eegio.FormatError, match="version"):
        eegio.read_checkpoint(path)


def test_files_are_little_endian(tmp_path):
    path = tmp_path / "le.ads3"
    es = make_set(1, 1, 1, fill=1.0)
    eegio.write_epochset(es, path)
    raw = path.read_bytes()
    # u32 n_trials immediately after magic+version
    assert raw[6:10] == (1).to_bytes(4, "little")
    # final f32 sample is 1.0 little-endian
    assert raw[-4:] == np.float32(1.0).tobytes()


# -- fuzzing the readers ---------------------------------------------------------

def _epoch_bytes(tmp):
    rng = np.random.default_rng(3)
    es = eegio.EpochSet(data=rng.standard_normal((4, 8, 512)).astype(np.float32),
                        labels=np.arange(4), fs=250.0,
                        channel_names=[f"ch{i}" for i in range(8)])
    eegio.write_epochset(es, tmp / "seed.ads3")
    return (tmp / "seed.ads3").read_bytes()


def _checkpoint_bytes(tmp):
    rng = np.random.default_rng(4)
    ckpt = eegio.ModelCheckpoint(
        entries=[("b1.conv1.w", (8, 16, 64), rng.standard_normal(8192).astype(np.float32)),
                 ("scale", (), np.ones(1, dtype=np.float32)),
                 ("head.b", (4,), np.zeros(4, dtype=np.float32))],
        metadata={"model": "reduced", "fold": "0"})
    eegio.write_checkpoint(ckpt, tmp / "seed.adsw")
    return (tmp / "seed.adsw").read_bytes()


# A position near the header, where a flip changes declared sizes, or anywhere.
_POSITION = st.one_of(st.integers(0, 80), st.integers(0, 2**31))
_MUTATION = st.one_of(
    st.tuples(st.just("truncate"), _POSITION),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=64)),
    st.tuples(st.just("flip"), st.lists(st.tuples(_POSITION, st.integers(0, 7)),
                                        min_size=1, max_size=8)),
)
# Allocations a read may add to the payload it returns: the file object and
# a few small Python objects.
_READ_SLACK = 16 << 10


def _mutate(raw: bytes, mutation) -> bytes:
    kind, arg = mutation
    if kind == "truncate":
        return raw[:arg % len(raw)]
    if kind == "extend":
        return raw + arg
    out = bytearray(raw)
    for pos, bit in arg:
        out[pos % len(out)] ^= 1 << bit
    return bytes(out)


def _read_within_file_size(reader, path):
    size = path.stat().st_size
    tracemalloc.start()
    try:
        reader(path)
    except eegio.FormatError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= size + _READ_SLACK, (peak, size)


@pytest.mark.parametrize("make, reader", [
    (_epoch_bytes, eegio.read_epochset),
    (_checkpoint_bytes, eegio.read_checkpoint),
], ids=["epochset", "checkpoint"])
def test_reader_fuzz_raises_only_format_error(tmp_path_factory, make, reader):
    work = tmp_path_factory.mktemp("fuzz") / "x"
    raw = make(work.parent)
    work.write_bytes(raw)
    reader(work)
    _read_within_file_size(reader, work)

    # In the checkpoint this flip turns the first name length from 10 into 32,778.
    @settings(max_examples=150, deadline=None)
    @given(mutation=_MUTATION)
    @example(mutation=("flip", [(11, 7)]))
    def check(mutation):
        work.write_bytes(_mutate(raw, mutation))
        _read_within_file_size(reader, work)

    check()

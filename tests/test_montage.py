import numpy as np
import pytest

from ads3d import montage as mg
from ads3d.eegio import EpochSet
from ads3d.training import align_to_montage


@pytest.fixture()
def default():
    return mg.default_montage()


def _montage_text(montage):
    return "".join(f"{r} {c} {name}\n" for r, row in enumerate(montage.grid)
                   for c, name in enumerate(row))


def test_default_is_a_bijection(default):
    assert default.side == 8
    names = default.channel_names
    assert len(names) == 64
    assert len({n.lower() for n in names}) == 64
    assert sorted(n.lower() for n in names) == \
        sorted(n.lower() for n in mg.CHANNEL_NAMES_64)


def test_default_midline_on_diagonal(default):
    diag = [default.grid[i][i] for i in range(8)]
    assert diag == ["AFz", "Fz", "Cz", "CPz", "Pz", "POz", "Oz", "Iz"]


def test_load_valid_file(tmp_path, default):
    path = tmp_path / "m.txt"
    path.write_text(_montage_text(default))
    again = mg.load_montage(path)
    assert again.grid == default.grid


def test_duplicate_cell_rejected(tmp_path):
    lines = ["0 0 A", "0 0 B"] + [f"{i // 8} {i % 8} ch{i}" for i in range(2, 64)]
    path = tmp_path / "dup.txt"
    path.write_text("\n".join(lines))
    with pytest.raises(mg.MontageError, match="duplicate cell"):
        mg.load_montage(path)


def test_wrong_line_count(tmp_path):
    lines = [f"{i // 8} {i % 8} ch{i}" for i in range(63)]
    path = tmp_path / "short.txt"
    path.write_text("\n".join(lines))
    with pytest.raises(mg.MontageError, match="expected 64 entries"):
        mg.load_montage(path)


def test_out_of_range_cell(tmp_path):
    lines = [f"{i // 8} {i % 8} ch{i}" for i in range(63)] + ["8 0 late"]
    path = tmp_path / "oob.txt"
    path.write_text("\n".join(lines))
    with pytest.raises(mg.MontageError, match="out of"):
        mg.load_montage(path)


def test_midline_off_diagonal_warns(tmp_path):
    names = [f"c{i}" for i in range(62)] + ["FCz", "c63"]
    lines = [f"{i // 8} {i % 8} {n}" for i, n in enumerate(names)]
    path = tmp_path / "warn.txt"
    path.write_text("\n".join(lines))
    with pytest.warns(UserWarning, match="FCz"):
        mg.load_montage(path)


def test_comments_and_blank_lines_ignored(tmp_path, default):
    path = tmp_path / "c.txt"
    text = "# a comment\n\n" + _montage_text(default) + "\n# trailing\n"
    path.write_text(text)
    assert mg.load_montage(path).grid == default.grid


def to_grid(epoch, channel_names, montage):
    """The model's grid step: [..., C, T] resolved by name into the montage's
    row-major order (training.align_to_montage), reshaped to [..., side, side, T]."""
    epoch = np.asarray(epoch, dtype=np.float64)
    batch = epoch.reshape((-1,) + epoch.shape[-2:])
    epochs = EpochSet(data=batch, labels=np.zeros(len(batch), dtype=np.int64),
                      fs=250.0, channel_names=channel_names)
    ordered = align_to_montage(epochs, montage)
    return ordered.reshape(epoch.shape[:-2] + (montage.side, montage.side, epoch.shape[-1]))


def from_grid(grid, channel_names, montage):
    """Oracle inverse of to_grid: cells back to the channel_names order."""
    rows = grid.reshape(grid.shape[:-3] + (montage.n_channels, grid.shape[-1]))
    cells = [n.lower() for n in montage.channel_names]
    return rows[..., [cells.index(n.lower()) for n in channel_names], :]


class TestGridTransforms:
    def test_zeros(self, default):
        grid = to_grid(np.zeros((64, 5)), mg.CHANNEL_NAMES_64, default)
        assert grid.shape == (8, 8, 5)
        assert not grid.any()

    def test_one_hot_lands_on_mapped_cell(self, default):
        epoch = np.zeros((64, 3))
        k = list(mg.CHANNEL_NAMES_64).index("Oz")
        epoch[k, 0] = 1.0
        grid = to_grid(epoch, mg.CHANNEL_NAMES_64, default)
        r, c = divmod(default.channel_names.index("Oz"), default.side)
        assert grid[r, c, 0] == 1.0
        assert grid.sum() == 1.0

    def test_roundtrip_identity(self, default):
        rng = np.random.default_rng(0)
        epoch = rng.standard_normal((64, 11)).astype(np.float32)   # stored precision
        grid = to_grid(epoch, mg.CHANNEL_NAMES_64, default)
        back = from_grid(grid, mg.CHANNEL_NAMES_64, default)
        assert np.array_equal(back, epoch)
        grid2 = to_grid(back, mg.CHANNEL_NAMES_64, default)
        assert np.array_equal(grid2, grid)

    def test_constant_grid_gives_constant_epoch(self, default):
        back = from_grid(np.full((8, 8, 2), 3.5), mg.CHANNEL_NAMES_64, default)
        assert back.shape == (64, 2)
        assert np.all(back == 3.5)

    def test_sum_preserved_per_sample(self, default):
        rng = np.random.default_rng(1)
        epoch = rng.standard_normal((64, 7))
        grid = to_grid(epoch, mg.CHANNEL_NAMES_64, default)
        assert np.allclose(np.sort(grid.reshape(64, 7), axis=0),
                           np.sort(epoch, axis=0))

    def test_permuted_names_track_channels(self, default):
        rng = np.random.default_rng(2)
        epoch = rng.standard_normal((64, 4))
        perm = rng.permutation(64)
        names = [mg.CHANNEL_NAMES_64[i] for i in perm]
        grid_a = to_grid(epoch[perm], names, default)
        grid_b = to_grid(epoch, mg.CHANNEL_NAMES_64, default)
        assert np.array_equal(grid_a, grid_b)

    def test_batched_leading_axes(self, default):
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((5, 64, 6))
        grids = to_grid(batch, mg.CHANNEL_NAMES_64, default)
        assert grids.shape == (5, 8, 8, 6)
        assert np.array_equal(grids[2],
                              to_grid(batch[2], mg.CHANNEL_NAMES_64, default))

    def test_name_mismatch_raises(self, default):
        names = ["x" + n for n in mg.CHANNEL_NAMES_64]
        with pytest.raises(ValueError, match="lacks channel"):
            to_grid(np.zeros((64, 2)), names, default)

    def test_case_insensitive_resolution(self, default):
        names = [n.upper() for n in mg.CHANNEL_NAMES_64]
        grid = to_grid(np.ones((64, 2)), names, default)
        assert grid.shape == (8, 8, 2)

    def test_commutes_with_elementwise_maps(self, default):
        epoch = np.random.default_rng(4).standard_normal((64, 9))
        f = np.abs   # exact under the float32 rounding of epoch storage
        lhs = to_grid(f(epoch), mg.CHANNEL_NAMES_64, default)
        rhs = f(to_grid(epoch, mg.CHANNEL_NAMES_64, default))
        assert np.array_equal(lhs, rhs)


def test_reduced_montage_is_16_channel_subset(default):
    small = mg.reduced_montage_4x4()
    assert small.side == 4
    big = {n.lower() for n in default.channel_names}
    assert {n.lower() for n in small.channel_names} <= big
    assert {"O1", "Oz", "O2", "Fp1", "Fp2"} <= set(small.channel_names)

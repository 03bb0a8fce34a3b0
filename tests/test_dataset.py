import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padmm.dataset import (MAGIC_DATASET, ContainerFormatError, Dataset,
                           ReconstructionRecord, read_container,
                           write_container)


def small_dataset():
    rng = np.random.default_rng(0)
    mask = (rng.uniform(size=(8, 8)) < 0.5).astype(float)
    mask[0, 0] = 1.0
    data = [mask * (rng.standard_normal((8, 8))
                    + 1j * rng.standard_normal((8, 8))) for _ in range(2)]
    phantom = rng.standard_normal((8, 8)).astype(complex)
    maps = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            for _ in range(2)]
    return Dataset(mask=mask, data=data, sigma=0.05, noise_seed=7,
                   coil_seed=11, fraction=float(mask.mean()),
                   phantom=phantom, coil_maps=maps)


@pytest.fixture
def dataset():
    return small_dataset()


class TestContainer:
    def test_round_trip_preserves_meta_and_blocks(self, tmp_path):
        path = tmp_path / "c.pad"
        rng = np.random.default_rng(1)
        blocks = {"a": rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))}
        write_container(path, MAGIC_DATASET, {"k": "v", "n": 3}, blocks)
        meta, back = read_container(path, MAGIC_DATASET)
        assert meta == {"k": "v", "n": "3"}
        assert np.array_equal(back["a"], blocks["a"])

    def test_identical_content_byte_identical_files(self, tmp_path):
        rng = np.random.default_rng(2)
        blocks = {"a": rng.standard_normal((4, 4)).astype(complex)}
        p1, p2 = tmp_path / "x.pad", tmp_path / "y.pad"
        write_container(p1, MAGIC_DATASET, {"n": 1}, blocks)
        write_container(p2, MAGIC_DATASET, {"n": 1}, blocks)
        assert p1.read_bytes() == p2.read_bytes()

    def test_negative_zero_survives_round_trip(self, tmp_path):
        path = tmp_path / "c.pad"
        arr = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)]])
        write_container(path, MAGIC_DATASET, {}, {"a": arr})
        _, back = read_container(path, MAGIC_DATASET)
        assert np.signbit(back["a"].real[0, 0])
        assert np.signbit(back["a"].imag[0, 1])

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "c.pad"
        write_container(path, MAGIC_DATASET, {}, {})
        with pytest.raises(ContainerFormatError):
            read_container(path, "SOMETHING-ELSE 1")

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "c.pad"
        write_container(path, MAGIC_DATASET, {},
                        {"a": np.ones((4, 4), dtype=complex)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ContainerFormatError):
            read_container(path, MAGIC_DATASET)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "c.pad"
        path.write_bytes(b"PADMM-DATASET 1\nn: 1\n")
        with pytest.raises(ContainerFormatError):
            read_container(path, MAGIC_DATASET)

    def test_non_2d_block_rejected(self, tmp_path):
        with pytest.raises(ContainerFormatError):
            write_container(tmp_path / "c.pad", MAGIC_DATASET, {},
                            {"a": np.zeros((2, 2, 2))})

    def test_bad_metadata_key_rejected(self, tmp_path):
        with pytest.raises(ContainerFormatError):
            write_container(tmp_path / "c.pad", MAGIC_DATASET,
                            {"a:b": 1}, {})


class TestDataset:
    def test_round_trip(self, dataset, tmp_path):
        path = tmp_path / "d.pad"
        dataset.save(path)
        back = Dataset.load(path)
        assert np.array_equal(back.mask, dataset.mask)
        assert back.sigma == dataset.sigma
        assert back.noise_seed == dataset.noise_seed
        assert back.coil_seed == dataset.coil_seed
        assert back.fraction == dataset.fraction
        for x, y in zip(back.data, dataset.data):
            assert np.array_equal(x, y)
        assert np.array_equal(back.phantom, dataset.phantom)
        for x, y in zip(back.coil_maps, dataset.coil_maps):
            assert np.array_equal(x, y)

    def test_round_trip_without_ground_truth(self, dataset, tmp_path):
        dataset.phantom = None
        dataset.coil_maps = None
        path = tmp_path / "d.pad"
        dataset.save(path)
        back = Dataset.load(path)
        assert back.phantom is None
        assert back.coil_maps is None
        assert back.n_coils == 2

    def test_save_is_stable(self, dataset, tmp_path):
        p1, p2 = tmp_path / "a.pad", tmp_path / "b.pad"
        dataset.save(p1)
        dataset.save(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestRecord:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        rec = ReconstructionRecord(
            u=rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)),
            coil_maps=[rng.standard_normal((6, 6)).astype(complex)],
            algorithm="admm", iterations=17,
            final_residual=1.25e-4, wall_ms=12.5,
        )
        path = tmp_path / "r.pad"
        rec.save(path)
        back = ReconstructionRecord.load(path)
        assert np.array_equal(back.u, rec.u)
        assert np.array_equal(back.coil_maps[0], rec.coil_maps[0])
        assert back.algorithm == "admm"
        assert back.iterations == 17
        assert back.final_residual == rec.final_residual
        assert back.wall_ms == rec.wall_ms

    def test_malformed_entry_rejected(self, tmp_path):
        rec = ReconstructionRecord(
            u=np.ones((2, 2), dtype=complex), coil_maps=[], algorithm="admm",
            iterations=3, final_residual=1.0, wall_ms=1.0,
        )
        path = tmp_path / "r.pad"
        rec.save(path)
        path.write_bytes(path.read_bytes().replace(b"iterations: 3",
                                                   b"iterations: x"))
        with pytest.raises(ContainerFormatError, match="malformed"):
            ReconstructionRecord.load(path)


class TestFuzzedDataset:
    """A corrupted dataset file either fails to load with a format error
    or loads as a dataset the solvers can take."""

    @staticmethod
    @st.composite
    def corrupted(draw, clean):
        header_end = clean.index(b"end-header\n")
        kind = draw(st.sampled_from(["flip", "truncate", "swap"]))
        if kind == "flip":
            raw = bytearray(clean)
            for _ in range(draw(st.integers(1, 3))):
                # half of the flips land in the header, where a digit or
                # a minus sign changes a count or a shape
                at = draw(st.integers(0, header_end)
                          | st.integers(0, len(clean) - 1))
                raw[at] = draw(st.sampled_from(b"0123456789-")
                               | st.integers(0, 255))
            return bytes(raw)
        if kind == "truncate":
            return clean[:draw(st.integers(0, len(clean) - 1))]
        lines = clean[:header_end].split(b"\n")[:-1]
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
        return b"\n".join(lines) + b"\n" + clean[header_end:]

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_load_is_clean_or_format_error(self, tmp_path, data):
        path = tmp_path / "d.pad"
        small_dataset().save(path)
        path.write_bytes(data.draw(self.corrupted(path.read_bytes())))
        try:
            loaded = Dataset.load(path)
        except ContainerFormatError:
            return
        assert loaded.n_coils >= 1
        fields = [loaded.mask] + loaded.data
        if loaded.phantom is not None:
            fields += [loaded.phantom] + (loaded.coil_maps or [])
        for field in fields:
            assert field.shape == loaded.mask.shape
            assert np.isfinite(field).all()

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padmm.dataset import (MAGIC_DATASET, MAGIC_RECORD, ContainerFormatError,
                           Dataset, ReconstructionRecord, read_container,
                           write_container)
from padmm.pipeline import ALGORITHMS

from oracles import decode_interleaved, encode_interleaved, signed_zero_field

# +-inf and NaNs of either sign, quiet and signalling, with payloads
SPECIALS = np.array([0x7FF0000000000000, 0xFFF0000000000000,
                     0x7FF80000DEADBEEF, 0xFFF8000000000123,
                     0x7FF0000000000001], dtype=np.uint64).view(np.float64)
# keys that headers carried before: no loader reads them
DROPPED_KEYS = {"height", "width", "has_ground_truth"}


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


def record(path) -> ReconstructionRecord:
    """A small record, saved to ``path``."""
    rng = np.random.default_rng(3)
    rec = ReconstructionRecord(
        u=rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)),
        coil_maps=[rng.standard_normal((6, 6)).astype(complex)],
        algorithm="admm", iterations=17,
        final_residual=1.25e-4, wall_ms=12.5,
    )
    rec.save(path)
    return rec


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

    def test_blocks_of_two_shapes_rejected(self, tmp_path):
        # 2x3 and 3x2 hold the same bytes, so only the shape rule sees it
        path = tmp_path / "c.pad"
        write_container(path, MAGIC_DATASET, {},
                        {"a": np.ones((2, 3)), "b": np.ones((3, 2))})
        with pytest.raises(ContainerFormatError, match="more than one shape"):
            read_container(path, MAGIC_DATASET)

    def test_payload_length_checked_before_any_block_is_read(self,
                                                              tmp_path):
        path = tmp_path / "c.pad"
        block = np.ones((190, 190), dtype=complex)  # 577 600 bytes
        write_container(path, MAGIC_DATASET, {}, {"a": block, "b": block})
        path.write_bytes(path.read_bytes() + b"\0")
        tracemalloc.start()
        try:
            with pytest.raises(ContainerFormatError, match="payload"):
                read_container(path, MAGIC_DATASET)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block.nbytes

    def test_non_2d_block_rejected(self, tmp_path):
        with pytest.raises(ContainerFormatError):
            write_container(tmp_path / "c.pad", MAGIC_DATASET, {},
                            {"a": np.zeros((2, 2, 2))})

    def test_bad_metadata_key_rejected(self, tmp_path):
        with pytest.raises(ContainerFormatError):
            write_container(tmp_path / "c.pad", MAGIC_DATASET,
                            {"a:b": 1}, {})

    def test_metadata_value_with_a_newline_rejected(self, tmp_path):
        # it would end the entry early: "ad\nmm" once loaded as "ad"
        rec = ReconstructionRecord(
            u=np.ones((2, 2), dtype=complex), coil_maps=[np.ones((2, 2))],
            algorithm="ad\nmm", iterations=1, final_residual=1.0, wall_ms=1.0)
        with pytest.raises(ContainerFormatError, match="bad metadata"):
            rec.save(tmp_path / "r.pad")
        assert not (tmp_path / "r.pad").exists()


def special_field(rng, shape, kind):
    """:func:`signed_zero_field` with infinities and NaN payloads written
    into about a quarter of its parts."""
    x = signed_zero_field(rng, shape, kind)
    for part in [x] if kind == "real" else [x.real, x.imag]:
        at = rng.random(part.shape) < 0.25
        part[at] = SPECIALS[rng.integers(0, SPECIALS.size, at.sum())]
    return x


def payload(raw: bytes) -> bytes:
    return raw[raw.index(b"end-header\n") + len(b"end-header\n"):]


class TestCodec:
    """Blocks are written as ``<c16`` bytes and read back through a
    ``<c16`` view; the interleaving codec is the reference."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 9), st.integers(1, 9),
           st.sampled_from(["real", "complex", "strided"]),
           st.integers(0, 10_000))
    def test_bytes_and_bits_match_the_interleaving_codec(self, tmp_path, h, w,
                                                         kind, seed):
        x = special_field(np.random.default_rng(seed), (h, w), kind)
        path = tmp_path / "c.pad"
        write_container(path, MAGIC_DATASET, {}, {"a": x})
        raw = payload(path.read_bytes())
        assert raw == encode_interleaved(x)
        _, blocks = read_container(path, MAGIC_DATASET)
        back = blocks["a"]
        assert back.dtype == np.complex128 and back.shape == (h, w)
        assert back.flags.writeable and back.flags.c_contiguous
        assert back.tobytes() == decode_interleaved(raw, (h, w)).tobytes()
        assert back.tobytes() == np.asarray(x, dtype=np.complex128).tobytes()


class TestHeaderKeys:
    def test_written_headers_carry_only_read_keys(self, dataset, tmp_path):
        dataset.save(tmp_path / "d.pad")
        meta, _ = read_container(tmp_path / "d.pad", MAGIC_DATASET)
        assert list(meta) == ["n", "sigma", "noise_seed", "coil_seed",
                              "fraction"]
        record(tmp_path / "r.pad")
        meta, _ = read_container(tmp_path / "r.pad", MAGIC_RECORD)
        assert list(meta) == ["n", "algorithm", "iterations",
                              "final_residual", "wall_ms"]

    def test_dataset_with_dropped_keys_loads(self, dataset, tmp_path):
        # the earlier layout: height and width after n, has_ground_truth
        # last; the values contradict the blocks and are still ignored
        new, old = tmp_path / "new.pad", tmp_path / "old.pad"
        dataset.save(new)
        raw = new.read_bytes()
        raw = raw.replace(b"\nn: 2\n", b"\nn: 2\nheight: 999\nwidth: 8\n")
        raw = raw.replace(b"\nblock: mask",
                          b"\nhas_ground_truth: 0\nblock: mask")
        old.write_bytes(raw)
        assert DROPPED_KEYS <= set(read_container(old, MAGIC_DATASET)[0])
        a, b = Dataset.load(new), Dataset.load(old)
        assert payload(raw) == payload(new.read_bytes())
        for field in ("sigma", "noise_seed", "coil_seed", "fraction"):
            assert getattr(a, field) == getattr(b, field)
        for x, y in zip([a.mask, a.phantom] + a.data + a.coil_maps,
                        [b.mask, b.phantom] + b.data + b.coil_maps):
            assert x.tobytes() == y.tobytes()

    def test_record_with_dropped_keys_loads(self, tmp_path):
        new, old = tmp_path / "new.pad", tmp_path / "old.pad"
        rec = record(new)
        old.write_bytes(new.read_bytes().replace(
            b"\nn: 1\n", b"\nn: 1\nheight: 6\nwidth: 6\n"))
        back = ReconstructionRecord.load(old)
        assert back.u.tobytes() == rec.u.tobytes()
        assert back.coil_maps[0].tobytes() == rec.coil_maps[0].tobytes()
        assert (back.algorithm, back.iterations, back.final_residual,
                back.wall_ms) == (rec.algorithm, rec.iterations,
                                  rec.final_residual, rec.wall_ms)


# finite floats, with negative zero, subnormals and the extremes drawn often
FLOATS = (st.sampled_from([-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                           -1.7976931348623157e308])
          | st.floats(allow_nan=False, allow_infinity=False))
SEEDS = st.integers(0, 2 ** 200)


def same(a, b) -> bool:
    """Equal values of one type; floats bit for bit (-0.0, NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


class TestHeaderRoundTrip:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sigma=FLOATS, noise_seed=SEEDS, coil_seed=SEEDS, fraction=FLOATS,
           algorithm=st.sampled_from(ALGORITHMS), iterations=SEEDS,
           # a run with no completed step records a NaN residual
           final_residual=FLOATS | st.just(math.nan), wall_ms=FLOATS)
    def test_every_header_field(self, tmp_path, sigma, noise_seed, coil_seed,
                                fraction, algorithm, iterations,
                                final_residual, wall_ms):
        field = np.ones((2, 3), dtype=complex)
        saved = [
            (Dataset(mask=field.real, data=[field], sigma=sigma,
                     noise_seed=noise_seed, coil_seed=coil_seed,
                     fraction=fraction),
             ("sigma", "noise_seed", "coil_seed", "fraction")),
            (ReconstructionRecord(u=field, coil_maps=[field],
                                  algorithm=algorithm, iterations=iterations,
                                  final_residual=final_residual,
                                  wall_ms=wall_ms),
             ("algorithm", "iterations", "final_residual", "wall_ms")),
        ]
        for rec, names in saved:
            first, second = tmp_path / "first.pad", tmp_path / "second.pad"
            rec.save(first)
            back = type(rec).load(first)
            for name in names:
                assert same(getattr(back, name), getattr(rec, name)), name
            back.save(second)
            assert second.read_bytes() == first.read_bytes()


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
        path = tmp_path / "r.pad"
        rec = record(path)
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

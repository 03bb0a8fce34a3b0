"""Bit-exact container files for datasets and reconstruction records.

Layout: a small text header (one ``key: value`` line per metadata
entry, one ``block: name H W`` line per field, terminated by
``end-header``), followed by the raw samples of each block in declared
order as little-endian float64 interleaved real/imaginary pairs,
row-major.  Writes are atomic (temp file + rename) and byte-identical
for identical content, so round-trips can be compared with ``cmp``.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

MAGIC_DATASET = "PADMM-DATASET 1"
MAGIC_RECORD = "PADMM-RECORD 1"


class ContainerFormatError(ValueError):
    pass


def _encode_block(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.complex128)
    inter = np.empty(arr.size * 2, dtype="<f8")
    inter[0::2] = arr.real.ravel()
    inter[1::2] = arr.imag.ravel()
    return inter.tobytes()


def _decode_block(buf: bytes, shape) -> np.ndarray:
    inter = np.frombuffer(buf, dtype="<f8")
    # assign components instead of re + 1j*im, which would flip the sign
    # bit of negative zeros and break byte-identical round trips
    out = np.empty(inter.size // 2, dtype=np.complex128)
    out.real = inter[0::2]
    out.imag = inter[1::2]
    return out.reshape(shape)


def atomic_write(path, chunks):
    """Write the byte strings ``chunks`` to a temporary file beside
    ``path`` and rename it over ``path``, so readers never see a part."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".padmm-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_container(path, magic: str, meta: dict, blocks: dict):
    """Atomically write metadata and 2D complex blocks to ``path``."""
    lines = [magic]
    for key, value in meta.items():
        if any(ch in str(key) for ch in ":\n"):
            raise ContainerFormatError(f"bad metadata key {key!r}")
        lines.append(f"{key}: {value}")
    for name, arr in blocks.items():
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ContainerFormatError("container blocks must be 2D fields")
        lines.append(f"block: {name} {arr.shape[0]} {arr.shape[1]}")
    lines.append("end-header")
    header = ("\n".join(lines) + "\n").encode("utf-8")
    # a generator, so only one encoded block is held in memory at a time
    atomic_write(path, itertools.chain(
        [header], (_encode_block(arr) for arr in blocks.values())))


def _block_entry(value: str):
    """``(name, (H, W))`` from the value of a ``block: name H W`` line."""
    try:
        name, h, w = value.rsplit(" ", 2)
        shape = (int(h), int(w))
    except ValueError:
        raise ContainerFormatError(f"malformed block line {value!r}") from None
    if min(shape) < 0:
        raise ContainerFormatError(f"negative block shape in {value!r}")
    return name, shape


def read_container(path, magic: str):
    """Read back a container; returns (meta, blocks) preserving order.

    Every malformed header or payload raises :class:`ContainerFormatError`.
    """
    with open(path, "rb") as fh:
        header_lines = []
        while True:
            line = fh.readline()
            if not line:
                raise ContainerFormatError("truncated header")
            try:
                text = line.decode("utf-8").rstrip("\n")
            except UnicodeDecodeError:
                raise ContainerFormatError("header is not UTF-8") from None
            if text == "end-header":
                break
            header_lines.append(text)
        if not header_lines or header_lines[0] != magic:
            raise ContainerFormatError(f"expected magic {magic!r}")
        meta, shapes = {}, {}
        for text in header_lines[1:]:
            key, _, value = text.partition(": ")
            if key == "block":
                name, shape = _block_entry(value)
                shapes[name] = shape
            else:
                meta[key] = value
        size = os.fstat(fh.fileno()).st_size
        blocks = {}
        for name, shape in shapes.items():
            nbytes = shape[0] * shape[1] * 16
            # checked before reading, so an absurd shape allocates nothing
            if nbytes > size - fh.tell():
                raise ContainerFormatError(f"truncated block {name!r}")
            blocks[name] = _decode_block(fh.read(nbytes), shape)
    return meta, blocks


@contextmanager
def _entries(path):
    """Report a missing or malformed header entry as a format error."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise ContainerFormatError(
            f"{path}: missing or malformed header entry: {exc}") from None


def _check_fields(path, ref: str, fields):
    """Reject a field not shaped like the first, ``ref``, or not finite."""
    shape = fields[0].shape
    for field in fields:
        if field.shape != shape:
            raise ContainerFormatError(
                f"{path}: block shape {field.shape} differs from the "
                f"{ref}'s {shape}")
        if not np.isfinite(field).all():
            raise ContainerFormatError(f"{path}: non-finite samples")


@dataclass
class Dataset:
    """One simulated acquisition with optional ground truth."""

    mask: np.ndarray
    data: list
    sigma: float
    noise_seed: int
    coil_seed: int
    fraction: float
    phantom: Optional[np.ndarray] = None
    coil_maps: Optional[list] = None

    @property
    def n_coils(self) -> int:
        return len(self.data)

    @property
    def shape(self):
        return self.mask.shape

    def save(self, path):
        meta = {
            "n": self.n_coils,
            "height": self.shape[0],
            "width": self.shape[1],
            "sigma": repr(float(self.sigma)),
            "noise_seed": int(self.noise_seed),
            "coil_seed": int(self.coil_seed),
            "fraction": repr(float(self.fraction)),
            "has_ground_truth": int(self.phantom is not None),
        }
        blocks = {"mask": self.mask.astype(np.complex128)}
        for j, f in enumerate(self.data):
            blocks[f"kspace_{j}"] = f
        if self.phantom is not None:
            blocks["phantom"] = self.phantom
            for j, c in enumerate(self.coil_maps or []):
                blocks[f"coil_{j}"] = c
        write_container(path, MAGIC_DATASET, meta, blocks)

    @classmethod
    def load(cls, path) -> "Dataset":
        """Read a dataset; at least one coil, every block shaped like the
        mask and finite, or :class:`ContainerFormatError`."""
        meta, blocks = read_container(path, MAGIC_DATASET)
        with _entries(path):
            n = int(meta["n"])
            mask = blocks["mask"].real.astype(np.float64)
            data = [blocks[f"kspace_{j}"] for j in range(n)]
            phantom = blocks.get("phantom")
            coil_maps = None
            if phantom is not None:
                coil_maps = [blocks[f"coil_{j}"] for j in range(n)
                             if f"coil_{j}" in blocks] or None
            dataset = cls(
                mask=mask, data=data,
                sigma=float(meta["sigma"]),
                noise_seed=int(meta["noise_seed"]),
                coil_seed=int(meta["coil_seed"]),
                fraction=float(meta["fraction"]),
                phantom=phantom, coil_maps=coil_maps,
            )
        if not data:
            raise ContainerFormatError(f"{path}: dataset has no coils")
        truth = [] if phantom is None else [phantom] + (coil_maps or [])
        _check_fields(path, "mask", [mask] + data + truth)
        return dataset


@dataclass
class ReconstructionRecord:
    """Solver output: spin density, coil maps and run metadata."""

    u: np.ndarray
    coil_maps: list
    algorithm: str
    iterations: int
    final_residual: float
    wall_ms: float

    def save(self, path):
        meta = {
            "n": len(self.coil_maps),
            "height": self.u.shape[0],
            "width": self.u.shape[1],
            "algorithm": self.algorithm,
            "iterations": int(self.iterations),
            "final_residual": repr(float(self.final_residual)),
            "wall_ms": repr(float(self.wall_ms)),
        }
        blocks = {"u": self.u}
        for j, c in enumerate(self.coil_maps):
            blocks[f"coil_{j}"] = c
        write_container(path, MAGIC_RECORD, meta, blocks)

    @classmethod
    def load(cls, path) -> "ReconstructionRecord":
        """Read a record; every coil block shaped like ``u`` and every
        sample finite, or :class:`ContainerFormatError`."""
        meta, blocks = read_container(path, MAGIC_RECORD)
        with _entries(path):
            n = int(meta["n"])
            record = cls(
                u=blocks["u"],
                coil_maps=[blocks[f"coil_{j}"] for j in range(n)],
                algorithm=meta["algorithm"],
                iterations=int(meta["iterations"]),
                final_residual=float(meta["final_residual"]),
                wall_ms=float(meta["wall_ms"]),
            )
        _check_fields(path, "u", [record.u] + record.coil_maps)
        return record

"""Bit-exact container files for datasets and reconstruction records.

Layout: a small text header (one ``key: value`` line per metadata
entry, one ``block: name H W`` line per field, terminated by
``end-header``), followed by the raw samples of each block in declared
order as little-endian complex128 (``<c16``), row-major.  Writes are
atomic (temp file + rename) and byte-identical for identical content,
so round-trips can be compared with ``cmp``.  :func:`read_container` checks
the layout (one H x W for all blocks, exactly the declared payload) before
it reads a block; each loader checks its header entries and finiteness.
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
    atomic_write(path, itertools.chain([header], (
        np.asarray(arr, dtype="<c16").tobytes() for arr in blocks.values())))


def _block_entry(value: str):
    """``(name, (H, W))`` from the value of a ``block: name H W`` line."""
    try:
        name, h, w = value.rsplit(" ", 2)
        shape = (int(h), int(w))
    except ValueError:
        raise ContainerFormatError(f"malformed block line {value!r}") from None
    if min(shape) < 1:
        raise ContainerFormatError(f"empty or negative block in {value!r}")
    return name, shape


def read_container(path, magic: str):
    """Read back a container; returns (meta, blocks) preserving order.

    A malformed header, a repeated metadata key or block name, blocks of
    more than one shape and a payload that is not exactly the declared
    blocks raise :class:`ContainerFormatError`, the last two decided from
    the header and the file size before any block is read.  Samples are
    not checked: the codec round-trips any bits, NaN payloads included.
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
            entries = meta
            if key == "block":
                (key, value), entries = _block_entry(value), shapes
            if key in entries:
                raise ContainerFormatError(f"repeated header entry {key!r}")
            entries[key] = value
        if len(set(shapes.values())) > 1:
            raise ContainerFormatError(f"blocks of more than one shape: "
                                       f"{sorted(set(shapes.values()))}")
        declared = sum(16 * h * w for h, w in shapes.values())
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != declared:
            raise ContainerFormatError(f"payload of {payload} bytes, but the "
                                       f"blocks declare {declared}")
        blocks = {}
        for name, (h, w) in shapes.items():
            raw = np.frombuffer(fh.read(16 * h * w), dtype="<c16")
            blocks[name] = raw.astype(np.complex128).reshape(h, w)
    return meta, blocks


@contextmanager
def _entries(path, blocks):
    """Reject a non-finite sample, report a missing or malformed header
    entry as a format error, and a block left in ``blocks``, which the
    loader pops as it reads them."""
    if not all(np.isfinite(block).all() for block in blocks.values()):
        raise ContainerFormatError(f"{path}: non-finite samples")
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise ContainerFormatError(
            f"{path}: missing or malformed header entry: {exc}") from None
    if blocks:
        raise ContainerFormatError(f"{path}: unread blocks {list(blocks)}")


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
            "sigma": repr(float(self.sigma)),
            "noise_seed": int(self.noise_seed),
            "coil_seed": int(self.coil_seed),
            "fraction": repr(float(self.fraction)),
        }
        blocks = {"mask": self.mask}
        for j, f in enumerate(self.data):
            blocks[f"kspace_{j}"] = f
        if self.phantom is not None:
            blocks["phantom"] = self.phantom
            for j, c in enumerate(self.coil_maps or []):
                blocks[f"coil_{j}"] = c
        write_container(path, MAGIC_DATASET, meta, blocks)

    @classmethod
    def load(cls, path) -> "Dataset":
        """Read a dataset; at least one coil, a real mask and every sample
        finite, or :class:`ContainerFormatError`."""
        meta, blocks = read_container(path, MAGIC_DATASET)
        with _entries(path, blocks):
            n = int(meta["n"])
            mask = blocks.pop("mask")
            data = [blocks.pop(f"kspace_{j}") for j in range(n)]
            phantom = blocks.pop("phantom", None)
            coil_maps = None
            if phantom is not None and blocks:  # all coil maps or none
                coil_maps = [blocks.pop(f"coil_{j}") for j in range(n)]
            dataset = cls(
                mask=mask.real.astype(np.float64), data=data,
                sigma=float(meta["sigma"]),
                noise_seed=int(meta["noise_seed"]),
                coil_seed=int(meta["coil_seed"]),
                fraction=float(meta["fraction"]),
                phantom=phantom, coil_maps=coil_maps,
            )
        if not data:
            raise ContainerFormatError(f"{path}: dataset has no coils")
        if mask.imag.any():
            raise ContainerFormatError(f"{path}: the mask block is not real")
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
        """Read a record; at least one coil, a nonnegative iteration count
        and every sample finite, or :class:`ContainerFormatError`."""
        meta, blocks = read_container(path, MAGIC_RECORD)
        with _entries(path, blocks):
            n = int(meta["n"])
            if n < 1 or int(meta["iterations"]) < 0:
                raise ValueError("no coils or negative iterations")
            record = cls(
                u=blocks.pop("u"),
                coil_maps=[blocks.pop(f"coil_{j}") for j in range(n)],
                algorithm=meta["algorithm"],
                iterations=int(meta["iterations"]),
                final_residual=float(meta["final_residual"]),
                wall_ms=float(meta["wall_ms"]),
            )
        return record

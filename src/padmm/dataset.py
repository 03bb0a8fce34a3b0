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

import functools
import itertools
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, get_type_hints

import numpy as np

MAGIC_DATASET = "PADMM-DATASET 1"
MAGIC_RECORD = "PADMM-RECORD 1"


class ContainerFormatError(ValueError):
    pass


def atomic_write(path, chunks):
    """Write the bytes-like ``chunks`` to a temporary file beside
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
        if any(ch in str(key) for ch in ":\n") or "\n" in str(value):
            raise ContainerFormatError(f"bad metadata {key!r}: {value!r}")
        lines.append(f"{key}: {value}")
    for name, arr in blocks.items():
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ContainerFormatError("container blocks must be 2D fields")
        lines.append(f"block: {name} {arr.shape[0]} {arr.shape[1]}")
    lines.append("end-header")
    header = ("\n".join(lines) + "\n").encode("utf-8")
    # a generator of each block's own buffer, so at most one encoded copy
    # (of a block not already C-ordered <c16) is held at a time
    atomic_write(path, itertools.chain([header], (
        memoryview(np.ascontiguousarray(arr, dtype="<c16"))
        for arr in blocks.values())))


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
        for name, shape in shapes.items():
            raw = np.empty(shape, dtype="<c16")
            if fh.readinto(raw) != raw.nbytes:
                raise ContainerFormatError("payload shorter than declared")
            blocks[name] = raw.astype(np.complex128, copy=False)
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


@functools.cache
def _scalar_fields(cls):
    """``(name, type)`` of each ``int``, ``float`` and ``str`` field of the
    record class ``cls``, in field order: the header entries after ``n``."""
    return [(name, kind) for name, kind in get_type_hints(cls).items()
            if kind in (int, float, str)]


def _header(record, n: int) -> dict:
    """``n``, then each scalar field (a float's ``str`` is its ``repr``)."""
    return {"n": n, **{name: kind(getattr(record, name))
                       for name, kind in _scalar_fields(type(record))}}


def _read_header(cls, meta: dict):
    """``(n, fields)`` from the entries :func:`_header` wrote; n >= 1."""
    n = int(meta["n"])
    if n < 1:
        raise ValueError(f"n: {n}, but a file holds at least one coil")
    return n, {name: kind(meta[name]) for name, kind in _scalar_fields(cls)}


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
        blocks = {"mask": self.mask}
        for j, f in enumerate(self.data):
            blocks[f"kspace_{j}"] = f
        if self.phantom is not None:
            blocks["phantom"] = self.phantom
            for j, c in enumerate(self.coil_maps or []):
                blocks[f"coil_{j}"] = c
        write_container(path, MAGIC_DATASET, _header(self, self.n_coils),
                        blocks)

    @classmethod
    def load(cls, path) -> "Dataset":
        """Read a dataset; at least one coil, a real mask and every sample
        finite, or :class:`ContainerFormatError`."""
        meta, blocks = read_container(path, MAGIC_DATASET)
        with _entries(path, blocks):
            n, scalars = _read_header(cls, meta)
            mask = blocks.pop("mask")
            data = [blocks.pop(f"kspace_{j}") for j in range(n)]
            phantom = blocks.pop("phantom", None)
            coil_maps = None
            if phantom is not None and blocks:  # all coil maps or none
                coil_maps = [blocks.pop(f"coil_{j}") for j in range(n)]
        if mask.imag.any():
            raise ContainerFormatError(f"{path}: the mask block is not real")
        return cls(mask=mask.real.astype(np.float64), data=data,
                   phantom=phantom, coil_maps=coil_maps, **scalars)


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
        blocks = {"u": self.u}
        for j, c in enumerate(self.coil_maps):
            blocks[f"coil_{j}"] = c
        write_container(path, MAGIC_RECORD,
                        _header(self, len(self.coil_maps)), blocks)

    @classmethod
    def load(cls, path) -> "ReconstructionRecord":
        """Read a record; at least one coil, a nonnegative iteration count
        and every sample finite, or :class:`ContainerFormatError`."""
        meta, blocks = read_container(path, MAGIC_RECORD)
        with _entries(path, blocks):
            n, scalars = _read_header(cls, meta)
            record = cls(u=blocks.pop("u"), coil_maps=[
                blocks.pop(f"coil_{j}") for j in range(n)], **scalars)
            if record.iterations < 0:
                raise ValueError("negative iterations")
        return record

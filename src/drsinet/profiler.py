"""Complexity profiling, shape tracing and weight serialization.

``profile`` builds the model without its seeded init, gives every parameter a
zero array (allocated lazily, so even the largest variant costs little
memory) and runs the real forward on an empty ``(0, 3, size, size)`` batch
under ``tensor.mac_counter``.  The batch has no elements, so no arithmetic
runs, but every layer is called and every primitive checks and produces its
real output shape.  The counter charges MACs per image by this convention
(one multiply-accumulate per weight application):

* convolution          c_out * c_in * k^2 * H_out * W_out   (bias excluded)
* depthwise conv       c * k^2 * H_out * W_out
* norms / activations / element-wise arithmetic: one MAC per output element
* averaging pools: one MAC per input element read
* max pools, concat/split, upsampling and space-to-depth: zero (comparisons
  and data movement)

There is one row per layer that owns parameters or runs a counted operation
itself, named by its dotted path; a composite layer's row carries the glue
operations (activations, residual adds, gates) it runs outside its children.
The feature pyramid the backbone returns and the refined levels the neck
returns add zero-cost ``backbone.P3``..``P6`` and ``neck.N3``..``N6`` rows.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .network import Model, ModelConfig
from .tensor import DomainError

ARCHIVE_MAGIC = b"DRSI"
ARCHIVE_VERSION = 1

# layers whose output is a pyramid, and the prefix of their per-level rows
_PYRAMID_ROWS = {"backbone": "P", "neck": "N"}


class ArchiveError(ValueError):
    """Weight archive is malformed or does not match the model."""


@dataclass
class ProfileRow:
    name: str
    shape: tuple
    params: int
    macs: int


@dataclass
class ProfileReport:
    rows: list
    total_params: int
    total_macs: int
    input_size: int

    @property
    def gmacs(self):
        return self.total_macs / 1e9


def _zeros(shape):
    # read-only, so Parameter.set keeps it without a copy and the pages are
    # only mapped if something reads them
    arr = np.zeros(shape, dtype=np.float32)
    arr.flags.writeable = False
    return arr


def profile(cfg: ModelConfig, input_size: int) -> ProfileReport:
    """Per-layer parameter and per-image MAC counts for a square input."""
    if input_size <= 0 or input_size % 64:
        raise DomainError(f"input size must be a positive multiple of 64, got {input_size}")
    model = Model(cfg)
    params = {}
    for name, p in model.named_parameters():
        p.set(_zeros(p.logical_shape))
        if p.trainable:
            owner = name.rpartition(".")[0]
            params[owner] = params.get(owner, 0) + p.count()
    with T.mac_counter() as counter:
        model(T.zeros((0, 3, input_size, input_size)))
    rows = []
    for name, shape in counter.outputs.items():
        if name in _PYRAMID_ROWS:
            rows.extend(ProfileRow(f"{name}.{_PYRAMID_ROWS[name]}{level}",
                                   (1,) + level_shape[1:], 0, 0)
                        for level, level_shape in enumerate(shape, start=3))
        elif name in params or name in counter.scope_macs:
            rows.append(ProfileRow(name, (1,) + shape[1:], params.get(name, 0),
                                   counter.scope_macs.get(name, 0)))
    return ProfileReport(rows=rows,
                         total_params=sum(r.params for r in rows),
                         total_macs=sum(r.macs for r in rows),
                         input_size=input_size)


def trace(cfg: ModelConfig, input_size: int):
    """Ordered (name, output shape) listing for every profiled layer."""
    return [(r.name, r.shape) for r in profile(cfg, input_size).rows]


def report_csv(report: ProfileReport) -> str:
    lines = ["name,n,c,h,w,params,macs"]
    for r in report.rows:
        n, c, h, w = r.shape
        lines.append(f"{r.name},{n},{c},{h},{w},{r.params},{r.macs}")
    lines.append(f"total,,,,,{report.total_params},{report.total_macs}")
    return "\n".join(lines) + "\n"


def report_jsonl(report: ProfileReport) -> str:
    """Line-delimited structured report: one object per row, totals last."""
    lines = [json.dumps({"name": r.name, "shape": list(r.shape),
                         "params": r.params, "macs": r.macs})
             for r in report.rows]
    lines.append(json.dumps({"totals": {"params": report.total_params,
                                        "macs": report.total_macs,
                                        "gmacs": report.gmacs},
                             "input_size": report.input_size}))
    return "\n".join(lines) + "\n"


def largest_param_layers(report: ProfileReport):
    """The five rows with the most parameters, for band-miss diagnostics."""
    rows = [r for r in report.rows if r.params > 0]
    rows.sort(key=lambda r: r.params, reverse=True)
    return rows[:5]


# ---------------------------------------------------------------------------
# weight archive
# ---------------------------------------------------------------------------

def save_weights(model, path):
    """Write all parameters (including norm buffers) as little-endian f32."""
    entries = list(model.named_parameters())
    with open(path, "wb") as fh:
        fh.write(ARCHIVE_MAGIC)
        fh.write(struct.pack("<II", ARCHIVE_VERSION, len(entries)))
        for name, p in entries:
            raw = name.encode("utf-8")
            dims = p.logical_shape
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BB", 0, len(dims)))
            fh.write(struct.pack(f"<{len(dims)}I", *dims))
            # the array's own buffer: no bytes copy per entry
            fh.write(np.ascontiguousarray(p.value.numpy(), dtype="<f4").data)


def _claim(fh, n, what, size):
    """Fail unless ``n`` more bytes remain in a file of ``size`` bytes, so a
    header that claims more than the file holds fails before anything is
    allocated."""
    left = size - fh.tell()
    if n > left:
        raise ArchiveError(f"truncated archive while reading {what}: "
                           f"{n} bytes claimed, {left} left")


def _read_exact(fh, n, what, size):
    _claim(fh, n, what, size)
    buf = fh.read(n)
    if len(buf) != n:
        raise ArchiveError(f"truncated archive while reading {what}")
    return buf


def _read_index(fh):
    """Header pass: check every entry header and seek past its payload.

    Returns an ordered ``{name: (dims, payload offset)}``; no payload is read.
    """
    size = os.fstat(fh.fileno()).st_size
    magic = _read_exact(fh, 4, "magic", size)
    if magic != ARCHIVE_MAGIC:
        raise ArchiveError(f"bad magic {magic!r}, expected {ARCHIVE_MAGIC!r}")
    version, count = struct.unpack("<II", _read_exact(fh, 8, "header", size))
    if version != ARCHIVE_VERSION:
        raise ArchiveError(f"unsupported archive version {version}")
    index = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "name length", size))
        name = _read_exact(fh, name_len, "name", size).decode("utf-8")
        dtype_tag, rank = struct.unpack("<BB", _read_exact(fh, 2, "entry header", size))
        if dtype_tag != 0:
            raise ArchiveError(f"unknown dtype tag {dtype_tag} for {name!r}")
        if not 1 <= rank <= 4:
            raise ArchiveError(f"bad rank {rank} for {name!r}")
        dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims", size))
        nbytes = 4 * math.prod(dims)
        _claim(fh, nbytes, f"payload of {name!r}", size)
        if name in index:
            raise ArchiveError(f"duplicate entry {name!r}")
        index[name] = (dims, fh.tell())
        fh.seek(nbytes, os.SEEK_CUR)
    return index


def _read_payload(fh, name, dims, offset):
    """Payload pass: one entry into a fresh read-only array, which
    ``Parameter.set`` keeps without a copy."""
    arr = np.empty(dims, dtype="<f4")
    fh.seek(offset)
    if fh.readinto(arr) != arr.nbytes:
        # the header pass saw the whole payload, so the file changed since
        raise ArchiveError(f"truncated archive while reading payload of {name!r}")
    arr.flags.writeable = False
    return arr


def read_archive(path):
    """Parse an archive into an ordered {name: read-only array} mapping."""
    with open(path, "rb") as fh:
        return {name: _read_payload(fh, name, dims, offset)
                for name, (dims, offset) in _read_index(fh).items()}


def load_weights(model, path):
    """Load an archive whose entry names match the model's set exactly.

    The header pass checks every entry header, the name set and every shape
    before any parameter changes, so an archive that fails them leaves the
    model as it was.  The payload pass reads one entry at a time and sets its
    parameter at once, so the load holds the model plus one entry.  A read
    that fails there (the file changed since the header pass) leaves every
    parameter unset, never a mix of old and new weights.
    """
    params = dict(model.named_parameters())
    with open(path, "rb") as fh:
        index = _read_index(fh)
        missing = sorted(set(params) - set(index))
        extra = sorted(set(index) - set(params))
        if missing or extra:
            raise ArchiveError(
                f"archive does not match model: missing={missing}, extra={extra}")
        for name, (dims, _) in index.items():
            if dims != params[name].logical_shape:
                raise ArchiveError(
                    f"shape mismatch for {name!r}: archive {dims}, "
                    f"model {params[name].logical_shape}")
        try:
            for name, (dims, offset) in index.items():
                params[name].set(_read_payload(fh, name, dims, offset))
        except BaseException:
            for p in params.values():
                p.clear()
            raise
    return model

"""Binary field files: one JSON header line, then raw little-endian floats.

Layout, in order:

* magic line ``#rsf 1\\n`` (ASCII),
* one-line JSON header with box lo/hi, cell counts n, component count,
  and the frame times,
* a 4-byte little-endian canary ``0x1A2B3C4D`` — a byte-swapped file
  fails here with a dedicated message,
* the payload: for each frame, for each component, the 3-d array in
  x-fastest order as little-endian float64.

Every failure raises FieldFormatError carrying the byte offset at which
the file stopped making sense. Round trips are bit-exact. read_header runs
every check up to the payload's values. read_field then reads the frames one
at a time into one frame-sized buffer and checks each for non-finite values,
but decodes only the frames it is asked for, so it holds those plus one
frame. The CLI decodes one frame for norms, localize and stokes-check, and
every frame for scan and stokes-check --bump.
"""

import json
import os
import struct

import numpy as np

from .grid import Box3, SpaceTimeField, VectorGrid

__all__ = ["FieldFormatError", "write_field", "read_field", "read_header", "CANARY"]

MAGIC = b"#rsf 1\n"
CANARY = 0x1A2B3C4D


class FieldFormatError(ValueError):
    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"format error at byte {offset}: {message}"
        super().__init__(message)
        self.offset = offset


def write_field(path, field):
    """Serialize a SpaceTimeField (or single VectorGrid, as one frame)."""
    if isinstance(field, VectorGrid):
        field = SpaceTimeField(times=(0.0,), frames=(field,))
    box = field.box
    header = {
        "format": "rsf",
        "version": 1,
        "lo": list(box.lo),
        "hi": list(box.hi),
        "n": list(box.n),
        "components": 3,
        "times": [float(t) for t in field.times],
    }
    if not all(np.isfinite(fr.data).all() for fr in field.frames):
        raise FieldFormatError("payload contains non-finite values")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(struct.pack("<I", CANARY))
        for frame in field.frames:
            # (component, z, y, x) in C order is the file's x-fastest order
            fh.write(np.array(frame.data.transpose(0, 3, 2, 1), "<f8", order="C"))


def _read_header(fh):
    """All checks up to the payload's values: box, times and payload offset."""
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise FieldFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    pos = len(MAGIC)

    line = fh.readline((1 << 20) + 1)
    if not line.endswith(b"\n"):
        raise FieldFormatError("unterminated header line", offset=pos)
    try:
        header = json.loads(line[:-1].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FieldFormatError(f"header is not valid JSON ({exc})", offset=pos)
    pos += len(line)

    raw = fh.read(4)
    if len(raw) < 4:
        raise FieldFormatError("file ends before the endianness canary", offset=pos)
    canary = struct.unpack("<I", raw)[0]
    if canary != CANARY:
        swapped = struct.unpack(">I", raw)[0]
        if swapped == CANARY:
            raise FieldFormatError(
                "canary is byte-swapped: file was written big-endian", offset=pos
            )
        raise FieldFormatError(
            f"bad canary 0x{canary:08X}, expected 0x{CANARY:08X}", offset=pos
        )
    pos += 4

    for key in ("lo", "hi", "n", "components", "times"):
        if key not in header:
            raise FieldFormatError(f"header missing field {key!r}", offset=len(MAGIC))
    if header["components"] != 3:
        raise FieldFormatError(
            f"unsupported component count {header['components']}", offset=len(MAGIC)
        )
    try:
        times = [float(t) for t in header["times"]]
    except (TypeError, ValueError) as exc:
        raise FieldFormatError(f"bad times: {exc}", offset=len(MAGIC))
    if not times:
        raise FieldFormatError("header lists no frame times", offset=len(MAGIC))
    if any(not b > a for a, b in zip(times, times[1:])):
        raise FieldFormatError("times must be strictly increasing", offset=len(MAGIC))
    try:
        n = tuple(int(m) for m in header["n"])
        box = Box3(tuple(header["lo"]), tuple(header["hi"]), n)
    except (TypeError, ValueError) as exc:
        raise FieldFormatError(f"bad box: {exc}", offset=len(MAGIC))

    expected = len(times) * 3 * n[0] * n[1] * n[2] * 8
    actual = os.fstat(fh.fileno()).st_size - pos
    if actual != expected:
        raise FieldFormatError(
            f"payload holds {actual} bytes, header promises {expected}", offset=pos
        )
    return box, times, pos


def read_header(path):
    """The box and frame times of a field file, checked up to the payload's values."""
    with open(path, "rb") as fh:
        return _read_header(fh)[:2]


def read_field(path, frames=None):
    """The field in a file; only the frames at increasing indices `frames` (None: all)."""
    with open(path, "rb") as fh:
        box, times, pos = _read_header(fh)
        keep = list(range(len(times)) if frames is None else frames)
        if not keep or keep != sorted(set(keep).intersection(range(len(times)))):
            raise ValueError(f"frames {keep} are not increasing indices below {len(times)}")
        cells = box.n[0] * box.n[1] * box.n[2]
        buf = np.empty(3 * cells, "<f8")
        # file order is (component, z, y, x); frames are (component, x, y, z)
        frame = buf.reshape(3, *box.n[::-1]).transpose(0, 3, 2, 1)
        decoded = []
        for k in range(len(times)):
            at = pos + k * buf.nbytes
            if fh.readinto(buf) != buf.nbytes:    # the file shrank since the header
                raise FieldFormatError(f"payload ends inside frame {k}", offset=at)
            # NaN propagates to min and max, so no mask is made for a finite frame
            if not (np.isfinite(buf.min()) and np.isfinite(buf.max())):
                bad = int(np.argmin(np.isfinite(buf)))
                raise FieldFormatError(
                    f"non-finite value in frame {k} component {bad // cells}",
                    offset=at + bad * 8,
                )
            if k in keep:
                decoded.append(VectorGrid.from_array(
                    box, np.array(frame, np.float64, order="C")))
    return SpaceTimeField(times=tuple(times[k] for k in keep), frames=tuple(decoded))

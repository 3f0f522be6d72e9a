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
the file stopped making sense. Round trips are bit-exact.
"""

import json
import struct

import numpy as np

from .grid import Box3, SpaceTimeField, VectorGrid

__all__ = ["FieldFormatError", "write_field", "read_field", "CANARY"]

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


def read_field(path):
    with open(path, "rb") as fh:
        raw = fh.read()

    if not raw.startswith(MAGIC):
        raise FieldFormatError(
            f"bad magic {raw[:len(MAGIC)]!r}, expected {MAGIC!r}", offset=0
        )
    pos = len(MAGIC)

    nl = raw.find(b"\n", pos)
    if nl < 0 or nl - pos > 1 << 20:
        raise FieldFormatError("unterminated header line", offset=pos)
    try:
        header = json.loads(raw[pos:nl].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FieldFormatError(f"header is not valid JSON ({exc})", offset=pos)
    pos = nl + 1

    if len(raw) < pos + 4:
        raise FieldFormatError("file ends before the endianness canary", offset=pos)
    canary = struct.unpack("<I", raw[pos:pos + 4])[0]
    if canary != CANARY:
        swapped = struct.unpack(">I", raw[pos:pos + 4])[0]
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
    if any(not b > a for a, b in zip(times, times[1:])):
        raise FieldFormatError("times must be strictly increasing", offset=len(MAGIC))
    try:
        n = tuple(int(m) for m in header["n"])
        box = Box3(tuple(header["lo"]), tuple(header["hi"]), n)
    except (TypeError, ValueError) as exc:
        raise FieldFormatError(f"bad box: {exc}", offset=len(MAGIC))

    cells = n[0] * n[1] * n[2]
    expected = len(times) * 3 * cells * 8
    actual = len(raw) - pos
    if actual != expected:
        raise FieldFormatError(
            f"payload holds {actual} bytes, header promises {expected}", offset=pos
        )

    payload = np.frombuffer(raw, dtype="<f8", offset=pos)
    finite = np.isfinite(payload)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise FieldFormatError(
            f"non-finite value in frame {bad // (3 * cells)} "
            f"component {bad // cells % 3}",
            offset=pos + bad * 8,
        )
    # file order is (frame, component, z, y, x); frames are (component, x, y, z)
    payload = payload.reshape(len(times), 3, *n[::-1]).transpose(0, 1, 4, 3, 2)
    frames = tuple(VectorGrid.from_array(box, np.array(fr, np.float64, order="C"))
                   for fr in payload)
    return SpaceTimeField(times=tuple(times), frames=frames)

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
the file stopped making sense. Round trips are bit-exact. writing_field
writes one frame at a time. read_header runs every check up to the payload's
values. read_field reads the components one at a time into one buffer and
checks each for non-finite values, but keeps only the frames it is asked
for, whole or on an index window of the box: one frame for norms and
localize, what the cylinder reads for scan, the cube for stokes-check.
"""

import contextlib
import json
import os
import struct

import numpy as np

from .grid import Box3, FieldWindow, SpaceTimeField, VectorGrid

__all__ = ["FieldFormatError", "writing_field", "write_field", "read_field", "read_header",
           "CANARY"]

MAGIC = b"#rsf 1\n"
CANARY = 0x1A2B3C4D


class FieldFormatError(ValueError):
    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"format error at byte {offset}: {message}"
        super().__init__(message)
        self.offset = offset


@contextlib.contextmanager
def writing_field(path, box, times):
    """Write a field file one frame at a time: yields put(data), which checks a
    (3, nx, ny, nz) frame for non-finite values and appends it. The file goes
    to path + ".part", and to path once every frame is in; on an error it is
    removed, so path is left as it was."""
    header = {"format": "rsf", "version": 1, "lo": list(box.lo), "hi": list(box.hi),
              "n": list(box.n), "components": 3, "times": [float(t) for t in times]}
    if not np.isfinite(header["times"]).all():
        raise FieldFormatError("frame times must be finite")
    part, written = f"{os.fspath(path)}.part", 0

    def put(data):
        nonlocal written
        if not np.isfinite(data).all():
            raise FieldFormatError("payload contains non-finite values")
        # (component, z, y, x) in C order is the file's x-fastest order
        fh.write(np.array(data.transpose(0, 3, 2, 1), "<f8", order="C"))
        written += 1

    try:
        with open(part, "wb") as fh:
            fh.write(MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n"
                     + struct.pack("<I", CANARY))
            yield put
        if written != len(times):
            raise ValueError(f"{written} frames written, the header lists {len(times)}")
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
        raise


def write_field(path, field):
    """Serialize a SpaceTimeField (or single VectorGrid, as one frame)."""
    if isinstance(field, VectorGrid):
        field = SpaceTimeField(times=(0.0,), frames=(field,))
    with writing_field(path, field.box, field.times) as put:
        for frame in field.frames:
            put(frame.data)


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
    if not np.isfinite(times).all():
        raise FieldFormatError("frame times must be finite", offset=len(MAGIC))
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


def read_field(path, frames=None, window=None):
    """The field in a file; only the frames at increasing indices `frames`
    (None: all), as a FieldWindow of their values on `window` (three slices
    of the box's indices) if given. Every frame is read and checked."""
    with open(path, "rb") as fh:
        box, times, pos = _read_header(fh)
        keep = list(range(len(times)) if frames is None else frames)
        if not keep or keep != sorted(set(keep).intersection(range(len(times)))):
            raise ValueError(f"frames {keep} are not increasing indices below {len(times)}")
        # one component at a time: the file holds each in (z, y, x) order
        buf = np.empty(box.n[::-1], "<f8")
        cut = buf.T if window is None else buf.T[window]
        decoded = []
        for j in range(3 * len(times)):
            (k, c), at = divmod(j, 3), pos + j * buf.nbytes
            if fh.readinto(buf) != buf.nbytes:    # the file shrank since the header
                raise FieldFormatError(f"payload ends inside frame {k}",
                                       offset=at - c * buf.nbytes)
            # NaN propagates to min and max, so no mask is made for finite values
            if not (np.isfinite(buf.min()) and np.isfinite(buf.max())):
                bad = int(np.argmin(np.isfinite(buf)))
                raise FieldFormatError(f"non-finite value in frame {k} component {c}",
                                       offset=at + bad * 8)
            if k in keep:
                if c == 0:
                    decoded.append(np.empty((3, *cut.shape)))
                decoded[-1][c] = cut
    kept = np.asarray([times[k] for k in keep])
    if window is None:
        return SpaceTimeField(kept, tuple(VectorGrid(box, a) for a in decoded))
    return FieldWindow(box, kept, tuple(decoded), tuple(s.start for s in window))

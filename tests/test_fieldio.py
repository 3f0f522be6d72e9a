"""Binary field container: bit-exact round trips and precise failure offsets.

Corrupt files are built by byte surgery on a freshly written valid file,
so every expected offset is computed from the same layout the writer
produced rather than hard-coded.
"""

import json
import os
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from regscan import fieldio
from regscan.fieldio import CANARY, FieldFormatError, read_field, write_field
from regscan.grid import Box3, SpaceTimeField, VectorGrid

MAGIC = b"#rsf 1\n"


def small_field(rng, frames=2, n=(4, 5, 3)):
    box = Box3((-0.5, 0.0, 1.0), (0.5, 2.0, 1.75), n)
    times = tuple(0.1 * k for k in range(frames))
    return SpaceTimeField(times, [
        VectorGrid(box, rng.normal(size=(3, *n))) for _ in times])


def payload_offset(raw):
    return raw.find(b"\n", len(MAGIC)) + 1 + 4


def test_round_trip_is_bit_exact(tmp_path, rng):
    f = small_field(rng)
    path = tmp_path / "field.rsf"
    write_field(path, f)
    g = read_field(path)
    assert np.array_equal(g.times, f.times)
    assert g.box == f.box
    for a, b in zip(g.frames, f.frames):
        assert np.array_equal(a.data, b.data)


def test_single_vector_grid_becomes_one_frame(tmp_path, rng):
    f = small_field(rng, frames=1)
    path = tmp_path / "frame.rsf"
    write_field(path, f.frames[0])
    g = read_field(path)
    assert np.array_equal(g.times, [0.0])
    assert np.array_equal(g.frames[0].data, f.frames[0].data)


def test_header_is_one_json_line(tmp_path, rng):
    path = tmp_path / "field.rsf"
    write_field(path, small_field(rng))
    raw = path.read_bytes()
    assert raw.startswith(MAGIC)
    header = json.loads(raw[len(MAGIC):raw.find(b"\n", len(MAGIC))])
    assert header["components"] == 3
    assert header["times"] == [0.0, 0.1]


def valid_bytes(tmp_path, rng):
    path = tmp_path / "good.rsf"
    write_field(path, small_field(rng))
    return path.read_bytes()


def reject(tmp_path, raw):
    path = tmp_path / "bad.rsf"
    path.write_bytes(raw)
    with pytest.raises(FieldFormatError) as err:
        read_field(path)
    return err.value


def test_bad_magic_reports_offset_zero(tmp_path, rng):
    raw = valid_bytes(tmp_path, rng)
    err = reject(tmp_path, b"#rsg 1\n" + raw[len(MAGIC):])
    assert err.offset == 0
    assert str(err).startswith("format error at byte 0:")
    assert "bad magic" in str(err)


def test_corrupt_header_json(tmp_path, rng):
    err = reject(tmp_path, MAGIC + b'{"lo": [0, 0, 0\n' + b"\0" * 16)
    assert err.offset == len(MAGIC)
    assert "not valid JSON" in str(err)


def test_missing_header_key(tmp_path, rng):
    raw = valid_bytes(tmp_path, rng)
    nl = raw.find(b"\n", len(MAGIC))
    header = json.loads(raw[len(MAGIC):nl])
    del header["times"]
    doctored = (MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n"
                + raw[nl + 1:])
    err = reject(tmp_path, doctored)
    assert "missing field 'times'" in str(err)


def test_unsupported_component_count(tmp_path, rng):
    raw = valid_bytes(tmp_path, rng)
    err = reject(tmp_path, raw.replace(b'"components": 3', b'"components": 2'))
    assert "unsupported component count 2" in str(err)
    assert err.offset == len(MAGIC)


def test_file_truncated_before_canary(tmp_path, rng):
    raw = valid_bytes(tmp_path, rng)
    nl = raw.find(b"\n", len(MAGIC))
    err = reject(tmp_path, raw[:nl + 3])
    assert "before the endianness canary" in str(err)
    assert err.offset == nl + 1


def test_byte_swapped_canary_names_the_endianness(tmp_path, rng):
    raw = valid_bytes(tmp_path, rng)
    pos = payload_offset(raw) - 4
    swapped = raw[:pos] + struct.pack(">I", CANARY) + raw[pos + 4:]
    err = reject(tmp_path, swapped)
    assert "written big-endian" in str(err)
    assert err.offset == pos


def test_garbage_canary(tmp_path, rng):
    raw = valid_bytes(tmp_path, rng)
    pos = payload_offset(raw) - 4
    err = reject(tmp_path, raw[:pos] + b"\xde\xad\xbe\xef" + raw[pos + 4:])
    assert "bad canary" in str(err)


def test_truncated_payload_reports_both_sizes(tmp_path, rng):
    raw = valid_bytes(tmp_path, rng)
    err = reject(tmp_path, raw[:-8])
    expected = len(raw) - payload_offset(raw)
    assert f"payload holds {expected - 8} bytes" in str(err)
    assert f"header promises {expected}" in str(err)
    assert err.offset == payload_offset(raw)


def test_non_finite_rejected_on_write(tmp_path, rng):
    f = small_field(rng)
    f.frames[1].data[2, 0, 0, 0] = np.nan
    with pytest.raises(FieldFormatError, match="non-finite"):
        write_field(tmp_path / "nan.rsf", f)


def test_non_finite_rejected_on_read_with_value_offset(tmp_path, rng):
    raw = valid_bytes(tmp_path, rng)
    base = payload_offset(raw)
    bad_at = base + 5 * 8                      # sixth value of the payload
    doctored = raw[:bad_at] + struct.pack("<d", np.inf) + raw[bad_at + 8:]
    err = reject(tmp_path, doctored)
    assert "non-finite value in frame 0 component 0" in str(err)
    assert err.offset == bad_at


def test_non_finite_offset_names_frame_and_component(tmp_path, rng):
    f = small_field(rng, frames=3)
    path = tmp_path / "three.rsf"
    write_field(path, f)
    raw = path.read_bytes()
    # frame 2, component 1, cell (3, 2, 1): x fastest within a component
    cells = 4 * 5 * 3
    bad_at = payload_offset(raw) + ((2 * 3 + 1) * cells + 3 + 4 * (2 + 5 * 1)) * 8
    assert struct.unpack("<d", raw[bad_at:bad_at + 8])[0] == \
        f.frames[2].data[1, 3, 2, 1]
    doctored = raw[:bad_at] + struct.pack("<d", np.nan) + raw[bad_at + 8:]
    err = reject(tmp_path, doctored)
    assert "non-finite value in frame 2 component 1" in str(err)
    assert err.offset == bad_at


def test_read_frames_are_writable_contiguous_float64(tmp_path, rng):
    f = small_field(rng, frames=3)
    write_field(tmp_path / "f.rsf", f)
    for frame in read_field(tmp_path / "f.rsf").frames:
        for comp in frame.data:
            assert comp.dtype == np.float64
            assert comp.flags.c_contiguous and comp.flags.writeable
            comp[0, 0, 0] = 1.0


@pytest.mark.parametrize("key,value,message", [
    ("n", 5, "bad box"),
    ("times", 5, "bad times"),
    ("times", [0.1, 0.1], "strictly increasing"),
    ("times", [], "no frame times"),
    ("times", [0.0, float("inf")], "frame times must be finite"),
    ("times", [float("-inf"), 0.1], "frame times must be finite"),
    ("times", [0.0, float("nan")], "frame times must be finite"),
    ("lo", [float("nan"), 0.0, 1.0], "bad box: box lo must be finite"),
])
def test_malformed_header_values(tmp_path, rng, key, value, message):
    raw = valid_bytes(tmp_path, rng)
    nl = raw.find(b"\n", len(MAGIC))
    header = json.loads(raw[len(MAGIC):nl])
    header[key] = value
    doctored = (MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n"
                + raw[nl + 1:])
    err = reject(tmp_path, doctored)
    assert message in str(err)
    assert err.offset == len(MAGIC)


def test_read_field_keeps_only_the_asked_frames(tmp_path, rng):
    f = small_field(rng, frames=3)
    write_field(tmp_path / "f.rsf", f)
    full = read_field(tmp_path / "f.rsf")
    for k in range(3):
        one = read_field(tmp_path / "f.rsf", frames=[k])
        assert one.box == full.box
        assert tuple(one.times) == (full.times[k],)
        (frame,) = one.frames
        assert frame.data.tobytes() == full.frames[k].data.tobytes()
        assert frame.data.dtype == np.float64
        assert frame.data.flags.c_contiguous and frame.data.flags.writeable
    both = read_field(tmp_path / "f.rsf", frames=[0, 2])
    assert np.array_equal(both.times, full.times[[0, 2]])
    assert np.array_equal(both.frames[1].data, full.frames[2].data)


def test_one_frame_read_still_checks_every_frame(tmp_path, rng):
    f = small_field(rng, frames=3)
    path = tmp_path / "three.rsf"
    write_field(path, f)
    raw = path.read_bytes()
    bad_at = payload_offset(raw) + (2 * 3 * 4 * 5 * 3 + 7) * 8   # frame 2
    path.write_bytes(raw[:bad_at] + struct.pack("<d", np.nan) + raw[bad_at + 8:])
    with pytest.raises(FieldFormatError) as full:
        read_field(path)
    with pytest.raises(FieldFormatError) as one:
        read_field(path, frames=[0])
    assert str(one.value) == str(full.value)
    assert one.value.offset == full.value.offset == bad_at
    assert "non-finite value in frame 2 component 0" in str(one.value)


def test_a_file_that_shrinks_after_the_size_check(tmp_path, rng, monkeypatch):
    raw = valid_bytes(tmp_path, rng)
    # the size check sees the full size, as if the file shrank after it
    monkeypatch.setattr(fieldio, "os", SimpleNamespace(
        fstat=lambda fd: SimpleNamespace(st_size=len(raw))))
    err = reject(tmp_path, raw[:-8])
    assert "payload ends inside frame 1" in str(err)
    assert err.offset == payload_offset(raw) + 3 * 4 * 5 * 3 * 8


@pytest.mark.parametrize("frames", [[3], [-1], [1, 0], [1, 1], []])
def test_frames_must_be_increasing_indices_of_the_file(tmp_path, rng, frames):
    write_field(tmp_path / "f.rsf", small_field(rng, frames=3))
    with pytest.raises(ValueError, match="not increasing indices below 3"):
        read_field(tmp_path / "f.rsf", frames=frames)


@pytest.mark.parametrize("frames, window", [
    ([2], None), (None, None), ([1, 2], (slice(2, 9), slice(0, 20), slice(5, 6))),
], ids=["one-frame", "all-frames", "window"])
def test_read_holds_the_decoded_frames_plus_one(tmp_path, rng, frames, window):
    # numpy reports its buffers to tracemalloc; the old whole-file read
    # peaked at the file, its finiteness mask and the decoded frames, and a
    # frame-sized read buffer held one frame more: the buffer is one component
    n = (24, 20, 16)
    write_field(tmp_path / "f.rsf", small_field(rng, frames=4, n=n))
    tracemalloc.start()
    try:
        g = read_field(tmp_path / "f.rsf", frames=frames, window=window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.frames) == (4 if frames is None else len(frames))
    kept = sum(a.nbytes for a in (g.frames if window else [f.data for f in g.frames]))
    assert peak <= kept + n[0] * n[1] * n[2] * 8 + 32 * 1024


def test_a_non_finite_later_frame_leaves_the_path_as_it_was(tmp_path, rng):
    f = small_field(rng, frames=3)
    f.frames[2].data[1, 2, 3, 0] = np.nan
    path = tmp_path / "nan.rsf"
    with pytest.raises(FieldFormatError) as err:
        write_field(path, f)
    assert str(err.value) == "payload contains non-finite values"
    assert err.value.offset is None
    assert os.listdir(tmp_path) == []       # no file, and no partial one
    path.write_bytes(b"an earlier file")
    with pytest.raises(FieldFormatError):
        write_field(path, f)
    assert os.listdir(tmp_path) == ["nan.rsf"]
    assert path.read_bytes() == b"an earlier file"


def test_writing_field_streams_the_file_write_field_writes(tmp_path, rng):
    f = small_field(rng, frames=3)
    write_field(tmp_path / "whole.rsf", f)
    with fieldio.writing_field(tmp_path / "streamed.rsf", f.box, f.times) as put:
        for frame in f.frames:
            put(frame.data)
            assert not (tmp_path / "streamed.rsf").exists()   # moved in at the end
    assert sorted(os.listdir(tmp_path)) == ["streamed.rsf", "whole.rsf"]
    assert ((tmp_path / "streamed.rsf").read_bytes()
            == (tmp_path / "whole.rsf").read_bytes())


def test_writing_field_refuses_a_short_run(tmp_path, rng):
    f = small_field(rng, frames=3)
    with pytest.raises(ValueError, match="2 frames written, the header lists 3"):
        with fieldio.writing_field(tmp_path / "short.rsf", f.box, f.times) as put:
            for frame in f.frames[:2]:
                put(frame.data)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_writing_field_refuses_a_non_finite_time_before_writing(tmp_path, rng, bad):
    f = small_field(rng)
    with pytest.raises(FieldFormatError, match="frame times must be finite"):
        with fieldio.writing_field(tmp_path / "f.rsf", f.box, [0.0, bad]):
            pass
    assert os.listdir(tmp_path) == []


def test_read_field_keeps_a_window_of_the_asked_frames(tmp_path, rng):
    f = small_field(rng, frames=4, n=(6, 5, 7))
    write_field(tmp_path / "f.rsf", f)
    window = (slice(1, 4), slice(0, 5), slice(2, 7))
    held = read_field(tmp_path / "f.rsf", frames=[1, 2], window=window)
    assert held.box == f.box and held.origin == (1, 0, 2)
    assert held.times.tolist() == [f.times[1], f.times[2]]
    for a, k in zip(held.frames, (1, 2)):
        assert a.tobytes() == np.ascontiguousarray(
            f.frames[k].data[(slice(None), *window)]).tobytes()


import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wmplanlab import tensorio
from wmplanlab.rng import derive_seed, generator


@pytest.mark.parametrize("shape", [(), (5,), (3, 4), (2, 3, 4)])
def test_wmt1_roundtrip(shape, tmp_path):
    rng = generator(1, "io", shape)
    arr = rng.standard_normal(shape)
    path = tmp_path / "t.bin"
    tensorio.save_tensors(path, [arr])
    (back,) = tensorio.load_tensors(path)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_wmt1_multiple_records(tmp_path):
    arrays = [np.arange(6, dtype=np.float64).reshape(2, 3), np.zeros(4)]
    path = tmp_path / "multi.bin"
    tensorio.save_tensors(path, arrays)
    back = tensorio.load_tensors(path)
    assert len(back) == 2
    assert np.array_equal(back[0], arrays[0])
    assert np.array_equal(back[1], arrays[1])
    with pytest.raises(ValueError):
        tensorio.load_tensors(path, count=3)


def test_wmt1_header_layout():
    buf = io.BytesIO()
    tensorio.write_tensor(buf, np.array([[1.0, 2.0]]))
    raw = buf.getvalue()
    assert raw[:4] == b"WMT1"
    assert int.from_bytes(raw[4:12], "little") == 2  # rank
    assert int.from_bytes(raw[12:20], "little") == 1  # dim 0
    assert int.from_bytes(raw[20:28], "little") == 2  # dim 1
    assert np.frombuffer(raw[28:], dtype="<f8").tolist() == [1.0, 2.0]


def test_wmt1_bad_magic():
    buf = io.BytesIO(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        tensorio.read_tensor(buf)


_arrays = st.lists(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0,
                                            max_side=5),
               elements=st.floats(allow_nan=True, allow_infinity=True)),
    min_size=1, max_size=4)


def _bytes_of(arrays) -> bytes:
    return b"".join(tensorio.tensor_bytes(a) for a in arrays)


@settings(max_examples=60, deadline=None)
@given(arrays=_arrays)
def test_wmt1_roundtrip_keeps_every_shape_and_bit(tmp_path_factory, arrays):
    path = tmp_path_factory.mktemp("io") / "t.bin"
    tensorio.save_tensors(path, arrays)
    for back in (tensorio.load_tensors(path),
                 tensorio.load_tensors(path, count=len(arrays))):
        assert [b.shape for b in back] == [a.shape for a in arrays]
        assert all(b.tobytes() == a.tobytes() for a, b in zip(arrays, back))


@settings(max_examples=60, deadline=None)
@given(arrays=_arrays, data=st.data())
def test_a_cut_wmt1_file_is_a_value_error(tmp_path_factory, arrays, data):
    raw = _bytes_of(arrays)
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    path = tmp_path_factory.mktemp("io") / "t.bin"
    path.write_bytes(raw[:cut])
    with pytest.raises(ValueError):
        tensorio.load_tensors(path, count=len(arrays))
    # read to EOF, a cut between two records is a shorter file, any other a ValueError
    ends = np.cumsum([len(tensorio.tensor_bytes(a)) for a in arrays])
    if cut == 0 or cut in ends:
        back = tensorio.load_tensors(path)
        assert [b.shape for b in back] == [a.shape for a in arrays[:len(back)]]
        assert sum(len(tensorio.tensor_bytes(b)) for b in back) == cut
    else:
        with pytest.raises(ValueError):
            tensorio.load_tensors(path)


@pytest.mark.parametrize("dim", [2 ** 62, 2 ** 40, 2 ** 33])
def test_a_header_that_claims_more_than_the_file_holds_is_a_cut_record(tmp_path, dim):
    # rejected before any read is sized by the header: such a read overflows
    # or runs out of memory
    path = tmp_path / "t.bin"
    tensorio.save_tensors(path, [np.ones((2, 3))])
    raw = bytearray(path.read_bytes())
    raw[12:20] = dim.to_bytes(8, "little")  # dim 0, after the magic and the rank
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="truncated tensor record"):
        tensorio.load_tensors(path)


def test_a_write_that_raises_midway_keeps_the_old_bytes(tmp_path):
    path = tmp_path / "t.bin"
    tensorio.save_tensors(path, [np.ones(3)])
    old = path.read_bytes()
    with pytest.raises(TypeError):  # after the first record is written
        tensorio.save_tensors(path, [np.zeros(3), object()])
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["t.bin"]  # no temp file left
    with pytest.raises(RuntimeError):
        with tensorio.atomic_open(tmp_path / "r.json", "w") as fh:
            fh.write("{")
            raise RuntimeError("midway")
    assert os.listdir(tmp_path) == ["t.bin"]
    with tensorio.atomic_open(tmp_path / "r.json", "w") as fh:
        fh.write("{}\n")
    assert (tmp_path / "r.json").read_text() == "{}\n"
    assert sorted(os.listdir(tmp_path)) == ["r.json", "t.bin"]


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(0, "a") == derive_seed(0, "a")
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(0, "a", 1) != derive_seed(0, "a", 2)
    assert derive_seed(1, "a") != derive_seed(0, "a")


def test_generator_streams_reproducible():
    a = generator(42, "x").standard_normal(8)
    b = generator(42, "x").standard_normal(8)
    c = generator(42, "y").standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)

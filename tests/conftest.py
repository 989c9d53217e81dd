import functools
import struct

import numpy as np
import pytest

from fqlab import FieldSpec, build_table, irreducible_count


@pytest.fixture(scope="session")
def field2():
    return FieldSpec(2)


@pytest.fixture(scope="session")
def field3():
    return FieldSpec(3)


@pytest.fixture(scope="session")
def table2(field2):
    # degree 10 covers factorization of degree-20 inputs and the degree-10
    # prime listing used all over the suite
    return build_table(field2, 10)


@pytest.fixture(scope="session")
def table2_14(field2):
    return build_table(field2, 14)


@pytest.fixture(scope="session")
def table3(field3):
    return build_table(field3, 6)


def _spoil(raw: bytes, p: int, d: int, how: str) -> bytes:
    """The sound cache file raw of field p with one flaw in degree d (or
    in its length)."""
    at = 16
    for e in range(1, d):
        at += 8 + 8 * irreducible_count(p, e)
    count, first = irreducible_count(p, d), at + 8
    idx = np.frombuffer(raw, dtype="<i8", count=count, offset=first).copy()
    if how == "index-too-large":
        idx[-1] = p**d
    elif how == "negative-index":
        idx[0] = -1
    elif how == "repeated-index":
        idx[-1] = idx[-2]
    elif how == "descending-pair":
        idx[[0, 1]] = idx[[1, 0]]
    elif how == "wrong-count":
        return raw[:at] + struct.pack("<Q", count + 1) + raw[first:]
    elif how == "truncated":
        return raw[:-3]
    elif how == "trailing-bytes":
        return raw + b"\x00"
    return raw[:first] + idx.tobytes() + raw[first + 8 * count:]


@pytest.fixture(params=["index-too-large", "negative-index", "repeated-index",
                        "descending-pair", "wrong-count", "truncated",
                        "trailing-bytes"])
def cache_flaw(request):
    """(name, spoil): a flaw that loading a cache file must reject, and
    spoil(raw, p, d), which puts it into degree d of a sound file."""
    return request.param, functools.partial(_spoil, how=request.param)


@pytest.fixture
def spoil():
    """_spoil(raw, p, d, how): one flaw of the kind how in degree d of a
    sound cache file, for files spoilt in more than one place."""
    return _spoil

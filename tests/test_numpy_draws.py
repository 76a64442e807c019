"""numpy's draws, pinned call by call in the argument forms the engine uses.

The Monte Carlo pins hold on the numpy they were taken on. numpy keeps a
bit generator's raw stream stable across versions, but promises no such
thing for ``Generator``'s distribution methods. Each case here hashes a
short draw of one call from a fresh generator, so when a Monte Carlo pin
fails on another numpy, a failure here names the call that moved; with
none here, the engine moved.
"""

import hashlib

import numpy as np
import pytest

from qifsim.montecarlo import substream


def fresh():
    """The engine's generator for one point: PCG64DXSM from a SeedSequence."""
    return substream(20260816, "fringe-scan", 0.5)


def filled(method, n=64):
    """``method(out=...)`` into a float64 buffer, as the engine fills its blocks."""
    out = np.empty(n)
    method(out=out)
    return out


def scalars(method, *args, n=32):
    """``n`` scalar calls of one method, as the engine draws its Poisson counts."""
    return [method(*args) for _ in range(n)]


DRAWS = {
    "SeedSequence into PCG64DXSM.random_raw": lambda: fresh().bit_generator.random_raw(64),
    "random(out=)": lambda: filled(fresh().random),
    "random(256)": lambda: fresh().random(256),
    "standard_normal(out=)": lambda: filled(fresh().standard_normal),
    "normal": lambda: fresh().normal(0.0, 0.29, 64),
    "uniform": lambda: fresh().uniform(-0.5, 0.5, 64),
    "integers(0, n) below 2**32": lambda: fresh().integers(0, 1_000_000, 64),
    "integers(0, n) above 2**32": lambda: fresh().integers(0, 2**40, 64),
    "poisson at a small mean": lambda: scalars(fresh().poisson, 3.5),
    "poisson at a large mean": lambda: scalars(fresh().poisson, 2.5e5),
    "geometric below p = 1/3": lambda: fresh().geometric(0.05, 64),
    "geometric above p = 1/3": lambda: fresh().geometric(0.9, 64),
    "exponential": lambda: fresh().exponential(20.0, 64),
}

PINNED = {  # numpy 2.4.6
    "SeedSequence into PCG64DXSM.random_raw": "7e702c26bfdbfe45d074acca8c889bdc7ebb4c1fea9fbcc0ecfb741c1422ab69",
    "random(out=)": "3e145897307805cf38d9b4c8526db76a03e7c92a91d9f9feb98516217d9aa066",
    "random(256)": "04824a41b1f9d8242fa5b2a21999769bd08632ee1e6b3b335484cb1a95d64c34",
    "standard_normal(out=)": "b387929015dbfa6f8aa065458627b2ad5c1b2acb82fa4167e5d584966afbe31a",
    "normal": "cbabb68b7bd70a62906fb59de762313b4183a1a1c3e12f55cd9324cd546ef626",
    "uniform": "e186d7241ca760d9903185bc890c61017f84a7b2bae2689c850cc58916b5069d",
    "integers(0, n) below 2**32": "9b83f694f6cb44e65d171c99122ba27885c3d1ae222ed32285db7101f10a8e80",
    "integers(0, n) above 2**32": "9cc688c3b001639096bde34802eda6aa7ff328c2a23e3764dd5721f6444b9a58",
    "poisson at a small mean": "f6c9fe8d805122cb80edc840293c3494e2604deef970054096e553e1c2b9322b",
    "poisson at a large mean": "a94fd67488422ef4870450008dca0755cafd47d136dc23d9b529bd112596b53e",
    "geometric below p = 1/3": "bc04ea88b4d522fbf705436f6abd1de080dbcd26e18b826c2d4f1aa676a66f8b",
    "geometric above p = 1/3": "f3099b65178ab9a7976e5f369c16ebccc23aa183b0d02664b1efc251f94c193b",
    "exponential": "73cca81027ec7fd4cfece95213c78356698f90b39792b5c66dbd120ebca8a0a3",
}


def digest(values) -> str:
    """SHA-256 of the values' little-endian bytes."""
    values = np.asarray(values)
    return hashlib.sha256(values.astype(values.dtype.newbyteorder("<")).tobytes()).hexdigest()


@pytest.mark.parametrize("call", DRAWS)
def test_numpy_draw_is_pinned(call):
    got = digest(DRAWS[call]())
    assert got == PINNED[call], f"numpy moved {call}: {np.__version__} draws {got}"

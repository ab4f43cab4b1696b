"""Shared fixtures: the three bundled curves, the bad-parameter files and a cofactor-4 curve."""

import json
from pathlib import Path

import pytest

from hlslab.cli import load_curve
from hlslab.curve import CurveParams, Point, curve_from_dict

DATA_DIR = Path(__file__).parent / "data"

# F_17, a = 2, b = 0: 20 points, so no prime n describes the whole group.
# G = (8, 1) has order 5; (3, 4) lies on the curve and has order 10.
HOST_20 = CurveParams(q=17, a=2, b=0, g=Point(8, 1), n=5, cofactor=4)


def load_bad_fixture(name: str) -> CurveParams:
    return curve_from_dict(json.loads((DATA_DIR / f"{name}.json").read_text()))


@pytest.fixture(scope="session")
def toy() -> CurveParams:
    return load_curve("toy17")


@pytest.fixture(scope="session")
def mid16() -> CurveParams:
    return load_curve("mid16")


@pytest.fixture(scope="session")
def secp256k1() -> CurveParams:
    return load_curve("secp256k1")


def outcome(k, p, e, mul):
    """mul(k, p, e), or the type and message of what it raised."""
    try:
        return mul(k, p, e)
    except Exception as exc:  # every path must keep every exception as it was
        return type(exc), str(exc)

import pathlib

import pytest

from polyposet import census

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(autouse=True)
def fresh_scan():
    """Every test reads real scans: none is kept from an earlier test."""
    census._scan.cache_clear()

"""Run the doctests embedded in the library modules."""

import doctest

import pytest

import polyposet._lines
import polyposet.bijection
import polyposet.census
import polyposet.perm
import polyposet.polygon
import polyposet.poset
import polyposet.render

MODULES = [
    polyposet._lines,
    polyposet.perm,
    polyposet.poset,
    polyposet.polygon,
    polyposet.bijection,
    polyposet.census,
    polyposet.render,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0 or module is polyposet.render

"""Run the doctests embedded in the library modules and in the README."""

import doctest
import inspect
import pathlib
import re

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

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0 or module is polyposet.render
    # an example where doctest does not look, such as on a property,
    # would otherwise never run
    assert result.attempted == inspect.getsource(module).count(">>> ")


def test_readme_examples():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    assert blocks
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, {}, f"README.md[{i}]",
                                      str(README), 0))
    result = runner.summarize(verbose=False)
    assert result.failed == 0
    assert result.attempted == sum(block.count(">>> ") for block in blocks)

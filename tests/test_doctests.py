import doctest

import pytest

import coxkl.blocks
import coxkl.coxeter
import coxkl.hecke
import coxkl.laurent
import coxkl.lefschetz


@pytest.mark.parametrize("module", [coxkl.laurent, coxkl.coxeter, coxkl.lefschetz, coxkl.hecke, coxkl.blocks])
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0

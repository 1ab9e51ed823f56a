import doctest

import pytest

import coxkl.coxeter
import coxkl.laurent
import coxkl.lefschetz


@pytest.mark.parametrize("module", [coxkl.laurent, coxkl.coxeter, coxkl.lefschetz])
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0

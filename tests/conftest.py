import pytest

from qpart import congruence


@pytest.fixture(autouse=True)
def cold_sweep_memo():
    """Start every test with an empty family-sweep memo, so that no result
    depends on which tests ran before it."""
    congruence._MEMO.clear()
    yield

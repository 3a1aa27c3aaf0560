import pytest

from substrqa.densities import reconstruct_base

from oracles import normalized_forms


@pytest.fixture(scope="session")
def q5_tables():
    """The certified density table of every normalized form with q = 5,
    built once for the sweeps that read them all: reconstruct_base keeps
    only a few tables, so each sweep would otherwise certify all 703."""
    return [reconstruct_base(sub) for sub in normalized_forms((5,))]

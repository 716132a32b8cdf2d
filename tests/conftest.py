import pytest

from nodal_atlas.partitions import enumerate_partitions


@pytest.fixture(scope="session")
def streams():
    """Every partition of r = 1..10, streamed once for the tests that read them all."""
    return {r: enumerate_partitions(r) for r in range(1, 11)}

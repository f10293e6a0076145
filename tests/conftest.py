import pytest
from hypothesis import settings

settings.register_profile("default", deadline=None)
settings.load_profile("default")


@pytest.fixture(scope="session")
def d5_nontrivial_sweep():
    """Shared result of the diameter-5 balanced sweep, run once per session."""
    from revca.injectivity import exhaustive_injective

    return sorted(t.wolfram for t in exhaustive_injective(5, exclude_trivial=True))

"""Shared fixtures: the verification suite runs at most once per session,
and hypothesis draws the same examples on every run."""

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def criterion():
    """Look up the result of an ``acceptance.run_*`` runner, running each
    one once per session; the acceptance tests and the ``reproduce`` test
    share the results."""
    cache = {}

    def result(runner):
        if runner not in cache:
            r = cache[runner] = runner()
            print(f"\n[{r.name}] elapsed {r.elapsed:.2f}s")
            for name, check in r.checks.items():
                print(f"  {name}: {check}")
        return cache[runner]

    return result

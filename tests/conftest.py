"""Shared fixtures: the verification suite runs at most once per session,
and hypothesis draws the same examples on every run."""

import pytest
from hypothesis import settings

from toepnorm import estimation

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def criterion():
    """Look up the result of an ``acceptance.run_*`` runner, running each
    one once per session; the acceptance tests and the ``reproduce`` test
    share the results.  While a runner runs, the (d, e) of every Gram
    tridiagonal reduction it makes are kept in ``criterion.tridiagonals``
    under the runner, so a test can check the eigenvalue step on exactly
    the suite's blocks."""
    cache = {}

    def result(runner):
        if runner not in cache:
            kept = result.tridiagonals[runner] = []
            reduce = estimation._tridiagonal

            def recorded(G, band):
                d, e = reduce(G, band)
                kept.append((d.copy(), e.copy()))
                return d, e

            estimation._tridiagonal = recorded
            try:
                r = cache[runner] = runner()
            finally:
                estimation._tridiagonal = reduce
            print(f"\n[{r.name}] elapsed {r.elapsed:.2f}s")
            for name, check in r.checks.items():
                print(f"  {name}: {check}")
        return cache[runner]

    result.tridiagonals = {}
    return result

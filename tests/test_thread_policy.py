"""One owner of the worker count and one splitter of the path axis.

The CLI resolves the count (``--threads``, the config, ``PARABOLICA_THREADS``,
1) and hands it to path simulation as an int; only path simulation splits
the path axis, through ``paths.for_path_blocks``.  The CLI half is tested in
``test_cli.py``.
"""

import threading
from pathlib import Path

import numpy as np
import pytest

import parabolica
from parabolica import model, paths
from parabolica.errors import ConfigError, NonFinite
from parabolica.linear_fk import LinearCoefficients, feynman_kac_estimate, pathwise_remainders

SPLITS = [(1, 8), (3, 2), (7, 3), (1000, 7)]


def test_only_the_cli_reads_the_environment():
    src = Path(parabolica.__file__).parent
    readers = sorted(p.name for p in src.glob("*.py")
                     if any(word in p.read_text() for word in ("os.environ", "getenv")))
    assert readers == ["cli.py"]


@pytest.mark.parametrize("J, threads", SPLITS)
def test_blocks_are_contiguous_and_cover_the_paths_once(J, threads):
    calls = []
    paths.for_path_blocks(J, threads, lambda j0, j1: calls.append((j0, j1, threading.get_ident())))
    blocks = sorted((j0, j1) for j0, j1, _ in calls)
    assert len(blocks) == min(J, threads)
    assert blocks[0][0] == 0 and blocks[-1][1] == J
    assert all(j0 < j1 for j0, j1 in blocks)
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    workers = {ident for *_, ident in calls}
    if len(blocks) == 1:
        assert workers == {threading.get_ident()}
    else:
        # Several blocks all run on pool workers, so a tracer of the calling
        # thread sees the same calls whatever the block count.
        assert threading.get_ident() not in workers


@pytest.mark.parametrize("J, threads", SPLITS)
def test_an_exception_in_a_block_reaches_the_caller(J, threads):
    def work(j0, j1):
        if j1 == J:
            raise NonFinite(f"block {j0}:{j1}")

    with pytest.raises(NonFinite, match=f":{J}$"):
        paths.for_path_blocks(J, threads, work)


def test_a_count_below_one_is_refused_before_any_block_runs():
    def never(j0, j1):
        raise AssertionError("no block may run")

    with pytest.raises(ConfigError, match="at least 1"):
        paths.for_path_blocks(10, 0, never)


def test_library_calls_never_read_the_threads_variable(monkeypatch):
    monkeypatch.setenv("PARABOLICA_THREADS", "abc")
    spec = model.catalog_get("heat")
    grid = paths.TimeGrid(0.0, spec.horizon, 4)
    batch = paths.euler_simulate(spec, grid, spec.x0_default, 16, seed=1)
    coeffs = LinearCoefficients.from_spec(spec)
    est = feynman_kac_estimate(coeffs, batch)
    tails = []
    pathwise_remainders(coeffs, batch, lambda n, r: tails.append(r.copy()))
    assert len(tails) == grid.N + 1
    np.testing.assert_array_equal(tails[-1].mean(), est.value)
    assert est == pathwise_remainders(coeffs, batch, lambda n, r: None)

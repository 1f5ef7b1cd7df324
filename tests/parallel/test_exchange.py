"""Algorithm 1 gather/scatter tests on synthetic data (ApplyExchange)."""

import numpy as np

from repro.parallel.exchange import EXCHANGE_SCHEMES

from tests.parallel.exchange_harness import flatten, run_exchange


def test_source_data_gather_scatter():
    """3 ranks, 2 boxes: contributions concatenate at the owner and
    reach every user, under both schemes."""
    for scheme in EXCHANGE_SCHEMES:
        _check_source_data_gather_scatter(scheme)


def _check_source_data_gather_scatter(scheme):
    contrib = np.array(
        [[True, False], [True, True], [False, True]]
    )  # (ranks, boxes)
    users = np.array([[True, True], [False, True], [True, False]])
    owner = np.array([0, 2])
    # rank-tagged payload so provenance is checkable
    pieces = [
        {b: np.full((2, 1), 100.0 * r + b) for b in range(2) if contrib[r, b]}
        for r in range(3)
    ]
    none = np.zeros_like(users)
    results = run_exchange(
        contrib, users, none, owner, pieces, np.zeros((3, 2, 1)), scheme
    )
    # every user of box 0 sees contributions from ranks {0, 1}
    for r in (0, 2):
        dens = results[r][0][0]
        assert dens.shape == (4, 1)
        assert set(np.unique(dens)) == {0.0, 100.0}
    # every user of box 1 sees contributions from ranks {1, 2}
    for r in (0, 1):
        assert set(np.unique(results[r][0][1])) == {101.0, 201.0}
    # every user holds the owner's concatenation order, byte for byte
    assert results[0][0][0].tobytes() == results[2][0][0].tobytes()
    assert results[0][0][1].tobytes() == results[1][0][1].tobytes()
    # non-users received nothing for that box
    assert 1 not in results[2][0]
    assert 0 not in results[1][0]


def test_equiv_density_reduction():
    """Partial densities sum at the owner; users receive the total."""
    for scheme in EXCHANGE_SCHEMES:
        _check_equiv_density_reduction(scheme)


def _check_equiv_density_reduction(scheme):
    contrib = np.array([[True, True, False], [True, False, True]])
    users = np.array([[True, False, True], [True, True, False]])
    owner = np.array([0, 0, 1])
    partials = np.zeros((2, 3, 4))
    for r in range(2):
        partials[r][contrib[r]] = r + 1.0  # rank 0 -> 1s, rank 1 -> 2s
    none = np.zeros_like(users)
    results = run_exchange(
        contrib, none, users, owner, [{}, {}], partials, scheme
    )
    equiv = [eq for _, eq in results]
    # box 0: contributors both ranks -> total 3
    assert np.array_equal(equiv[0][0], np.full(4, 3.0))
    assert np.array_equal(equiv[1][0], np.full(4, 3.0))
    # box 1: only rank 0 -> total 1, used by rank 1
    assert np.array_equal(equiv[1][1], np.full(4, 1.0))
    # box 2: only rank 1 -> total 2, used by rank 0
    assert np.array_equal(equiv[0][2], np.full(4, 2.0))


def test_empty_exchange():
    empty = np.zeros((2, 0), dtype=bool)
    results = run_exchange(
        empty, empty, empty, np.empty(0, dtype=np.int64), [{}, {}],
        np.zeros((2, 0, 3)),
    )
    assert results == [({}, {}), ({}, {})]
    assert flatten(results) == []

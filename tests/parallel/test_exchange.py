"""Algorithm 1 gather/scatter tests on synthetic data (ApplyExchange)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.commcheck_static import check_deadlock, run_checks
from repro.parallel.exchange import compile_exchange, fold_slots
from repro.parallel.simmpi import combine_tree, tree_children, tree_order

from tests.parallel.exchange_harness import (
    exchange_ir,
    flatten,
    run_exchange,
)
from tests.parallel.recording import program_messages


def test_source_data_gather_scatter():
    """3 ranks, 2 boxes: contributions concatenate at the owner and
    reach every user."""
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
        contrib, users, none, owner, pieces, np.zeros((3, 2, 1))
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
    contrib = np.array([[True, True, False], [True, False, True]])
    users = np.array([[True, False, True], [True, True, False]])
    owner = np.array([0, 0, 1])
    partials = np.zeros((2, 3, 4))
    for r in range(2):
        partials[r][contrib[r]] = r + 1.0  # rank 0 -> 1s, rank 1 -> 2s
    none = np.zeros_like(users)
    results = run_exchange(
        contrib, none, users, owner, [{}, {}], partials
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


# -- the compiled program: certified, and run as written -----------------


@st.composite
def role_matrices(draw):
    """Random roles: up to 12 ranks and 6 boxes; every box has a
    contributor and a user, and an owner that need be neither."""
    nranks = draw(st.integers(1, 12))
    nboxes = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    contrib = rng.random((nranks, nboxes)) < 0.4
    users = rng.random((nranks, nboxes)) < 0.4
    cols = np.arange(nboxes)
    contrib[rng.integers(0, nranks, nboxes), cols] = True
    users[rng.integers(0, nranks, nboxes), cols] = True
    return contrib, users, rng.integers(0, nranks, nboxes), rng


@settings(max_examples=25, deadline=None)
@given(role_matrices())
def test_compiled_program_is_certified_run_and_traced(case):
    """The IR of random roles certifies, and the interpreter runs it as
    written: what each rank asks of its communicator (recorded
    test-side) is exactly its program's sends, posts and waits, in
    order, and the same again on a second round with the same
    programs (a second apply of one state).  Every user receives the
    owner's concatenation and binomial sum, bit for bit."""
    contrib, users, owner, rng = case
    nranks, nboxes = contrib.shape
    pieces = [
        {b: rng.standard_normal((int(rng.integers(1, 4)), 2))
         for b in range(nboxes) if contrib[r, b]}
        for r in range(nranks)
    ]
    partials = rng.standard_normal((nranks, nboxes, 5))
    ir = exchange_ir(contrib, users, users, owner)
    report = run_checks(ir)
    assert report.ok, [str(f) for f in report.findings[:5]]
    rounds = [{}, {}]
    for record in rounds:
        results = run_exchange(
            contrib, users, users, owner, pieces, partials, record=record
        )
    for rank in range(nranks):
        want = program_messages(ir.programs[rank])
        for record in rounds:
            assert record[rank].messages() == want
    for b in range(nboxes):
        order = tree_order(np.flatnonzero(contrib[:, b]), owner[b])
        held = [r for r in order if contrib[r, b]]
        rows = np.vstack([pieces[r][b] for r in held])
        total = combine_tree(
            [partials[r][b] if contrib[r, b] else None for r in order],
            lambda a, c: a + c,
        )
        for r in np.flatnonzero(users[:, b]):
            ghost, equiv = results[r]
            assert ghost[b].tobytes() == rows.tobytes()
            assert equiv[b].tobytes() == total.tobytes()


def test_mutually_interior_gather_nodes_do_not_deadlock():
    """Ranks 0 and 2 each own a box in which the other is an interior
    gather node (position 2 of 4, with its own child): each waits for
    the other's forward.  Waiting all of a rank's nodes before
    forwarding any is a cycle; per node in box order is not."""
    contrib = np.ones((4, 2), dtype=bool)
    users = np.eye(4, 2, dtype=bool)
    owner = np.array([0, 2])
    none = np.zeros_like(users)
    ir = exchange_ir(contrib, none, users, owner)
    for rank, box in ((2, 0), (0, 1)):
        assert [
            (op.kind, op.note) for op in ir.programs[rank]
            if op.ids == (box,) and op.kind != "post"
        ] == [("complete", ""), ("send", "relay")]
    assert check_deadlock(ir) == []
    # The same ops with every wait hoisted before every forward: stuck.
    hoisted = copy.deepcopy(ir)
    for prog in hoisted.programs:
        prog.sort(key=lambda op: op.kind == "send" and op.note != "inject")
    assert [f.check for f in check_deadlock(hoisted)] == ["deadlock"]

    partials = np.random.default_rng(5).standard_normal((4, 2, 3))
    reference = None
    for seed in range(10):
        got = flatten(run_exchange(
            contrib, none, users, owner, [{}] * 4, partials,
            schedule_seed=seed, recv_timeout=20.0,
        ))
        assert got == (reference := reference or got)


def test_fold_rule_is_combine_tree_over_all_pieces(rng):
    """Slots + combine_tree at every node == combine_tree over all
    pieces: the same association (checked symbolically) and the same
    bits, with any pieces absent."""
    for n in range(1, 41):
        present = rng.random(n) < 0.7
        for pieces, combine in (
            ([str(i) if present[i] else None for i in range(n)],
             lambda a, c: f"({a}+{c})"),
            ([rng.standard_normal(3) if present[i] else None
              for i in range(n)],
             lambda a, c: a + c),
        ):
            def fold(pos):
                return fold_slots(
                    pieces[pos],
                    {c - pos: fold(c) for c in tree_children(pos, n)},
                    combine,
                )

            want, got = combine_tree(pieces, combine), fold(0)
            if isinstance(want, np.ndarray):
                want, got = want.tobytes(), got.tobytes()
            assert got == want, n


@pytest.mark.parametrize("kind", ["phi", "pue"])
def test_circulating_box_without_contributor_is_rejected(kind):
    roles = [((7,), 0, [], [0, 1])]
    with pytest.raises(ValueError, match=rf"{kind} box \(7,\).*contributor"):
        compile_exchange(kind, roles)

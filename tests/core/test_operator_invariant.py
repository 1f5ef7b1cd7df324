"""An apply builds no operator: setup builds exactly what applies read.

For every way an operator is set up, the operator tables after
``setup()`` must hold what a lazily filled cache holds after one apply —
nothing missing (an apply would build it, and a forked rank would build
it again) and nothing extra (``setup_s`` would pay for it) — and an
apply must leave them alone.  Under the sanitizers a miss is an error.
"""

import numpy as np
import pytest

from repro.analysis.sanitize import OperatorMissError
from repro.bie.stokes_bie import StokesSingleLayer
from repro.bie.surfaces import SphereSurface
from repro.core.fmm import FMMOptions, KIFMM
from repro.core.m2lschedule import resolve_m2l_schedule, v_stats_from_lists
from repro.core.precompute import OperatorCache
from repro.kernels import LaplaceKernel, ModifiedLaplaceKernel, StokesKernel
from repro.parallel import ParallelFMM
from repro.serve.service import OperatorRegistry

from tests.conftest import clustered_cloud, count_factorisations, uniform_cloud
from tests.parallel.transports import thread_world


def table_keys(cache):
    """The keys of every operator table (dict attribute) of a cache."""
    return {
        name: set(table) for name, table in vars(cache).items()
        if isinstance(table, dict)
    }


def tables(states):
    return table_keys(states[0].cache)


def lazily_filled(states, apply):
    """The tables a cold cache holds after the schedule probe and one
    apply of these states: what the parent commit's first apply left."""
    cache, opts = states[0].cache, states[0].options
    cold = OperatorCache(
        cache.kernel, cache.p, cache.root_side,
        inner=cache.inner, outer=cache.outer, rcond=cache.rcond,
    )
    # Every rank resolved its schedule from the whole tree's statistics.
    st = states[0]
    resolve_m2l_schedule(
        opts.m2l, opts.dtype, cache=cold, kernel=cache.kernel,
        stats=v_stats_from_lists(
            st.tree, st.lists, st.ptree.global_nsrc, st.ptree.global_ntrg
        ),
    )
    warm = [state.cache for state in states]
    for state in states:
        state.cache = cold
    try:
        apply()
    finally:
        for state, cache in zip(states, warm):
            state.cache = cache
    return table_keys(cold)


CASES = [
    ("laplace-auto", LaplaceKernel(), uniform_cloud, {}),
    ("laplace-rsvd32", LaplaceKernel(), clustered_cloud,
     {"m2l": "rsvd", "dtype": "float32"}),
    ("stokes-dense", StokesKernel(), clustered_cloud, {"m2l": "dense"}),
    ("modified-laplace-auto", ModifiedLaplaceKernel(1.5), uniform_cloud, {}),
]


@pytest.mark.parametrize("nranks", [1, 2], ids=["kifmm", "p2"])
@pytest.mark.parametrize(
    "kernel,make,m2l", [case[1:] for case in CASES], ids=[c[0] for c in CASES]
)
def test_setup_builds_what_an_apply_reads(rng, kernel, make, m2l, nranks):
    pts = make(rng, 500)
    phi = rng.standard_normal((500, kernel.source_dof))
    opts = FMMOptions(p=3, max_points=20, **m2l)
    if nranks == 1:
        op = KIFMM(kernel, opts).setup(pts)
        states = [op.state]
    else:
        op = ParallelFMM(nranks, kernel, opts).setup(pts)
        states = op.states
    built = tables(states)
    assert any(built.values())
    with thread_world():  # the cold cache fills in this process
        assert built == lazily_filled(states, lambda: op.apply(phi))
    with count_factorisations() as calls, thread_world():
        op.apply(phi)
    assert calls == {"randomized_svd": 0, "regularized_pinv": 0}
    assert tables(states) == built


def test_stokes_operator_keeps_the_invariant_across_refresh_geometry():
    """A moved geometry carries the previous one's operators over
    (rescaled), so its tables may hold more than its applies read —
    never less, and refreshing factors nothing."""
    surfaces = [
        SphereSurface(np.array([0.6, 0.0, 2.2]), radius=0.4, n=90),
        SphereSurface(np.array([-0.6, 0.0, 0.0]), radius=0.5, n=110),
    ]
    op = StokesSingleLayer(surfaces, options=FMMOptions(p=3, max_points=30))
    b = np.ones(3 * op.n)
    for moved in (False, True):
        states = [op._fmm.state]
        built = tables(states)
        read = lazily_filled(states, lambda: op.matvec(b))
        if not moved:
            assert built == read
        assert all(read[name] <= built[name] for name in read)
        op.matvec(b)
        assert tables(states) == built
        surfaces[0].points[:] += 0.05  # a time step moves a body
        with count_factorisations() as calls:
            op.refresh_geometry()
        assert calls == {"randomized_svd": 0, "regularized_pinv": 0}


def test_serve_register_is_the_only_slow_call(rng):
    pts = uniform_cloud(rng, 600)
    registry = OperatorRegistry()
    op = registry.get(registry.register(LaplaceKernel(), pts, FMMOptions(p=3)))
    states = [op.state]
    built = tables(states)
    phi = rng.standard_normal(600)
    assert built == lazily_filled(states, lambda: op.apply(phi))
    with count_factorisations() as calls:
        op.apply(phi)
    assert calls == {"randomized_svd": 0, "regularized_pinv": 0}
    assert tables(states) == built


@pytest.mark.parametrize("m2l", ["rsvd"])
def test_sanitized_apply_names_the_operator_setup_missed(rng, m2l):
    pts = uniform_cloud(rng, 400)
    phi = rng.standard_normal((400, 1))
    opts = FMMOptions(p=3, max_points=20, m2l=m2l)
    plain = KIFMM(LaplaceKernel(), opts).setup(pts)
    expected = plain.apply(phi)
    table = plain.cache._dc2de
    table.clear()
    assert np.array_equal(plain.apply(phi), expected)  # built under the apply
    table.clear()
    plain.options.sanitize = True
    with pytest.raises(OperatorMissError, match="dc2de"):
        plain.apply(phi)
    assert not table  # and the sealed view built nothing

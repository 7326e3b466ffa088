"""The numpy stimulus-timeline compile against the tuple compile it replaced.

:func:`repro.scenarios.runner.compile_timeline` binds a run's object
updates and callback entries (events, churn, control and admission ticks)
to exact query indices with a stable ``argsort`` and three
``searchsorted`` calls.  The oracle below is the compile it replaced,
kept verbatim in spirit: one ``(t, prio, seq, kind, payload)`` tuple per
entry (updates at prio -1), one sort, consecutive same-index updates
coalesced into one action (which carries the pump callback in pump
mode), then the flat update stream and each callback's place in it, as
the engine used to derive them from the actions.

Compared: the stream's ``q``/``t``/``pos`` bytes, and every callback's
``(index, time, place)`` in firing order -- pumps included, so the pump
instants are compared too.
"""

from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.scenarios.runner import compile_timeline
from repro.sim.fastpath import Action, _sorted_actions, _stream_of


def _oracle(arrivals, updates, callbacks, pump):
    """The tuple compile: ``(q, t, pos, [(index, time, place, tag)])``.

    *callbacks* are ``(t, prio)`` pairs in their sorted order; a callback
    is tagged with its rank there, a pump with None."""
    entries = []
    for t, prio in callbacks:  # added first: a callback's seq is its rank
        entries.append((t, prio, len(entries), "callback", None))
    for t, pos in updates:
        entries.append((t, -1, len(entries), "update", (t, pos)))
    entries.sort(key=lambda en: (en[0], en[1], en[2]))
    arrivals = np.asarray(arrivals, dtype=np.float64)
    idx_of = (
        np.searchsorted(arrivals, np.array([en[0] for en in entries]), side="right").tolist()
        if entries
        else []
    )
    actions = []  # (index, time, is_callback, updates, tag)
    k = 0
    while k < len(entries):
        t, _prio, seq, kind, payload = entries[k]
        index = int(idx_of[k])
        if kind == "update":
            batch = [payload]
            while (
                k + 1 < len(entries)
                and entries[k + 1][3] == "update"
                and int(idx_of[k + 1]) == index
            ):
                k += 1
                batch.append(entries[k][4])
            actions.append((index, t, pump, batch, None))
        else:
            actions.append((index, t, True, [], seq))
        k += 1
    actions.sort(key=lambda a: a[0])  # stable, as the engine sorted them
    n_q = len(arrivals)
    counts = [len(a[3]) for a in actions]
    bounds = np.cumsum([0] + counts).tolist()
    fired = [
        (index, t, lo, tag)
        for (index, t, is_cb, _, tag), lo in zip(actions, bounds)
        if is_cb
    ]
    q = np.repeat([min(a[0], n_q) for a in actions], counts).astype(np.int64)
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(a[3] for a in actions)),
        dtype=np.float64,
    )
    return q, flat[0::2], flat[1::2], fired


def _compiled(arrivals, updates, callbacks, pump):
    """The numpy compile, in the oracle's shape: the stream the engines
    build from it, and the callbacks and pumps as Actions in the order
    the engines fire them (which also checks each place)."""
    arrivals = np.asarray(arrivals, dtype=np.float64)
    times = [t for t, _ in callbacks]
    q, rows, cb_index, cb_place, pump_place = compile_timeline(
        arrivals, np.asarray(updates, dtype=np.float64).reshape(-1, 2), times, pump
    )
    n_q = len(arrivals)
    stream = _stream_of((q, rows), n_q)
    tags = {}
    acts = []
    rows_ = zip(cb_index.tolist(), times, cb_place.tolist(), range(len(times)))
    pumps = zip(
        q[pump_place].tolist(),
        rows[pump_place, 0].tolist(),
        pump_place.tolist(),
        [None] * len(pump_place),
    )
    for index, t, place, tag in chain(rows_, pumps):
        acts.append(Action(index, t, lambda now: None, stream_pos=place))
        tags[id(acts[-1])] = tag
    fired = [
        (a.index, a.time, a.stream_pos, tags[id(a)])
        for a in _sorted_actions(acts, stream, n_q)
    ]
    return stream.q, stream.t, stream.pos, fired


#: a coarse grid, so that updates, callbacks and arrivals tie exactly,
#: and updates fall before the first query and after the last
GRID = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
times_ = st.one_of(st.sampled_from(GRID), st.floats(0.0, 4.0))


@settings(max_examples=400, deadline=None)
@given(
    arrivals=st.lists(st.sampled_from(GRID[1:-1] + [0.7, 1.2]), max_size=8),
    drawn=st.lists(st.tuples(times_, st.floats(0.0, 0.99)), max_size=12),
    given_=st.lists(st.tuples(times_, st.floats(0.0, 0.99)), max_size=6),
    callbacks=st.lists(st.tuples(times_, st.integers(0, 3)), max_size=8),
    pump=st.booleans(),
)
def test_numpy_compile_matches_the_tuple_compile(arrivals, drawn, given_, callbacks, pump):
    """Unsorted drawn and given updates, ties among updates, callbacks
    and arrivals, several callbacks at one index, pump and no-pump runs,
    empty streams."""
    arrivals = sorted(arrivals)
    updates = drawn + given_  # the runner's insertion order
    # the runner hands callbacks over in their (t, prio, seq) order
    order = sorted(range(len(callbacks)), key=lambda k: (*callbacks[k], k))
    callbacks = [callbacks[k] for k in order]
    want = _oracle(arrivals, updates, callbacks, pump)
    got = _compiled(arrivals, updates, callbacks, pump)
    for name, a, b in zip(("q", "t", "pos"), got[:3], want[:3]):
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), name
    assert got[3] == want[3]


def test_cases_reach_what_they_name():
    """The strategy's corners exist: a pump split by a callback at one
    index, and a callback tied with an update goes after it."""
    arrivals = [1.0, 2.0]
    updates = [(1.5, 0.1), (0.5, 0.2), (1.5, 0.3), (1.7, 0.4), (3.0, 0.5)]
    callbacks = [(1.5, 0), (1.5, 2)]
    q, t, pos, fired = _compiled(arrivals, updates, callbacks, pump=True)
    assert q.tolist() == [0, 1, 1, 1, 2]
    assert t.tolist() == [0.5, 1.5, 1.5, 1.7, 3.0]
    assert pos.tolist() == [0.2, 0.1, 0.3, 0.4, 0.5]
    # pumps at each group start; both callbacks go after the two updates
    # at t=1.5 and split the group at index 1, so 1.7 starts a new one
    assert fired == [
        (0, 0.5, 0, None),
        (1, 1.5, 1, None),
        (1, 1.5, 3, 0),
        (1, 1.5, 3, 1),
        (1, 1.7, 3, None),
        (2, 3.0, 4, None),
    ]
    assert fired == _oracle(arrivals, updates, callbacks, pump=True)[3]
    empty = _compiled([], [], [], pump=True)
    assert [len(a) for a in empty[:3]] == [0, 0, 0] and empty[3] == []

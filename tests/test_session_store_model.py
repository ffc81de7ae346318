"""A stateful model check of the session stores.

Hypothesis drives ``put``, ``get`` and ``delete`` against a dict of what
each id should hold; on the file backend also a reload through a fresh
:class:`FileSessionStore` over the same directory, and a put or delete
that dies at its fault point.  After every step the store holds exactly
the model's ids, and every stored state's ``last_result()`` is the
recorded ranking bit for bit (dtype, shape, bytes, label): a Euclidean
round is answered from that ranking, so a store that rounds or drops it
changes answers.  A fault point either raises in the test process or, in
a forked writer over the same directory, kills the writer the way a
SIGKILL would: no ``except`` or ``finally`` block runs.  Mutations caught
(each checked on a broken copy): ``_encode_array`` writing ``float32``
bytes; ``from_payload`` ignoring ``last_algorithm_label``; a
``FileSessionStore.delete`` that keeps the document on disk; a
``FileSessionStore.put`` that writes before its fault point; and, by the
killed writer only, a ``put`` that writes before its fault point and
restores the previous document in an ``except`` handler.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cbir.query import Query, RetrievalResult
from repro.exceptions import FaultInjectedError, SessionError
from repro.service import FileSessionStore, InMemorySessionStore, SessionState
from repro.utils.faults import _EXIT_CODE, FaultPlan, installed

_IDS = st.sampled_from(["a", "b", "c"])
_SCORES = hnp.arrays(
    np.float64,
    st.integers(0, 6),
    elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
_LABELS = st.sampled_from(["euclidean", "lrf-csvm", ""])


def _write_until_killed(directory, session_id, point):
    """Child process: a put or delete on *directory* that dies at *point*."""
    store = FileSessionStore(directory)
    with installed(FaultPlan.single(point, action="exit")):
        if point == "store.before_put":
            store.put(SessionState(session_id=session_id, query=Query(query_index=99)))
        else:
            store.delete(session_id)


@st.composite
def _rankings(draw):
    """``None`` (no ranking yet) or a ranking with arbitrary float scores."""
    if draw(st.booleans()):
        return None
    scores = draw(_SCORES)
    indices = draw(
        hnp.arrays(np.int64, scores.shape, elements=st.integers(0, 2**40))
    )
    return RetrievalResult(indices, scores, Query(query_index=0), draw(_LABELS))


class _SessionStoreMachine(RuleBasedStateMachine):
    backend = "memory"

    def __init__(self) -> None:
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="session-store-machine-"))
        self.store = self._open()
        self.model = {}  # session id -> (query index, ranking or None)

    def _open(self):
        if self.backend == "file":
            return FileSessionStore(self.directory / "sessions")
        return InMemorySessionStore()

    def teardown(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    @rule(session_id=_IDS, query=st.integers(0, 9), ranking=_rankings())
    def put(self, session_id, query, ranking):
        state = SessionState(session_id=session_id, query=Query(query_index=query),
                             algorithm="euclidean")
        if ranking is not None:
            state.record_ranking(ranking)
        self.store.put(state)
        self.model[session_id] = (query, ranking)

    @rule(session_id=_IDS)
    def get(self, session_id):
        if session_id in self.model:
            self._check(session_id, self.store.get(session_id))
        else:
            try:
                self.store.get(session_id)
            except SessionError:
                pass
            else:
                raise AssertionError(f"{session_id!r} was deleted but get() found it")

    @rule(session_id=_IDS)
    def delete(self, session_id):
        self.store.delete(session_id)
        self.model.pop(session_id, None)

    @precondition(lambda self: self.backend == "file")
    @rule()
    def reload(self):
        self.store = self._open()

    @precondition(lambda self: self.backend == "file")
    @rule(session_id=_IDS, point=st.sampled_from(["store.before_put", "store.before_delete"]))
    def crash(self, session_id, point):
        """A put or delete that dies at its fault point changes nothing."""
        state = SessionState(session_id=session_id, query=Query(query_index=99))
        with installed(FaultPlan.single(point)):
            try:
                if point == "store.before_put":
                    self.store.put(state)
                else:
                    self.store.delete(session_id)
            except FaultInjectedError:
                pass
            else:
                raise AssertionError(f"{point} did not fire")

    @precondition(lambda self: self.backend == "file")
    @rule(session_id=_IDS, point=st.sampled_from(["store.before_put", "store.before_delete"]))
    def killed_writer(self, session_id, point):
        """A writer process killed at its fault point changes nothing."""
        writer = multiprocessing.get_context("fork").Process(
            target=_write_until_killed,
            args=(self.directory / "sessions", session_id, point),
        )
        writer.start()
        writer.join(30)
        assert writer.exitcode == _EXIT_CODE, f"{point} did not kill the writer"

    @invariant()
    def holds_exactly_the_model(self):
        assert self.store.session_ids() == sorted(self.model)
        for session_id in self.model:
            assert session_id in self.store
            self._check(session_id, self.store.get(session_id))

    def _check(self, session_id, state):
        query, ranking = self.model[session_id]
        assert state.query.query_index == query
        got = state.last_result()
        if ranking is None:
            assert got is None
            return
        assert got.algorithm == (ranking.algorithm or "unknown")
        for have, want in ((got.image_indices, ranking.image_indices),
                           (got.scores, ranking.scores)):
            assert have.dtype == want.dtype and have.shape == want.shape
            assert have.tobytes() == want.tobytes()


class _FileSessionStoreMachine(_SessionStoreMachine):
    backend = "file"


_MACHINE_SETTINGS = settings(max_examples=30, stateful_step_count=12, deadline=None)
TestSessionStoreMachineInMemory = _SessionStoreMachine.TestCase
TestSessionStoreMachineInMemory.settings = _MACHINE_SETTINGS
TestSessionStoreMachineOnFile = _FileSessionStoreMachine.TestCase
TestSessionStoreMachineOnFile.settings = _MACHINE_SETTINGS

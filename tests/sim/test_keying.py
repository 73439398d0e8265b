"""Cache keys built from per-process JSON fragments and point keys.

:func:`repro.sim.runner.stable_hash` writes the canonical JSON text of
its arguments itself, reusing the text of every frozen, fully immutable
dataclass it has encoded before, and :func:`~repro.sim.runner.config_hash`
keeps the digest of every point whose workload, spec and configuration
are immutable, keyed by their identities. The contract: the digest is
the SHA-256 of exactly what ``json.dumps`` writes for the canonical form
(:func:`canonicalize` below, the list form earlier code built), whether
the tables are cold or warm, bounded, or shared between threads.
"""

import dataclasses
import enum
import hashlib
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List

import pytest

from repro.core.taxonomy import ALL_POLICY_SPECS
from repro.faults.models import DropoutFault, FaultPlan
from repro.sim import runner as runner_module
from repro.sim.engine import SimulationConfig
from repro.sim.runner import RunPoint, config_hash, stable_hash
from repro.sim.workloads import ALL_WORKLOADS
from tests.sim.test_runner import PINNED_KEYS, _pinned_points


def canonicalize(obj):
    """The canonical form as nested lists: the oracle for the encoder."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__name__, obj.value]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            "dc",
            type(obj).__name__,
            [
                [f.name, canonicalize(getattr(obj, f.name))]
                for f in dataclasses.fields(obj)
            ],
        ]
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, dict):
        return [
            [canonicalize(k), canonicalize(v)] for k, v in sorted(obj.items())
        ]
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r}")


def oracle_hash(*objs) -> str:
    payload = json.dumps(
        [canonicalize(o) for o in objs],
        sort_keys=False,
        separators=(",", ":"),
        allow_nan=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Color(enum.Enum):
    RED = 1
    BLUE = "blü\n"
    PAIR = (2, 2.5)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mode(str, enum.Enum):
    FAST = "fast"


@dataclasses.dataclass(frozen=True)
class Frozen:
    a: object
    b: object = None


@dataclasses.dataclass
class Open:
    value: object


@pytest.fixture
def cold(monkeypatch):
    """Cold fragment and point-key tables at the default bound."""
    monkeypatch.setattr(runner_module, "_FRAGMENTS", {})
    monkeypatch.setattr(runner_module, "_POINT_KEYS", {})
    return runner_module


@pytest.fixture
def table(cold, monkeypatch):
    """Cold fragment and point-key tables holding at most 8 entries each."""
    monkeypatch.setattr(runner_module, "FRAGMENT_TABLE_SIZE", 8)
    return cold


def point_oracle(point, version):
    """:func:`config_hash` of ``point`` by the oracle."""
    return oracle_hash(
        "run-point", runner_module.CACHE_FORMAT_VERSION, version,
        point.workload, point.spec, point.config,
    )


def grid_points():
    """The paper's grid: every workload under every cell and unthrottled."""
    config = SimulationConfig(duration_s=0.05)
    return [
        RunPoint(w, spec, config)
        for spec in (None,) + ALL_POLICY_SPECS
        for w in ALL_WORKLOADS
    ]


def no_encoding(obj):
    raise AssertionError(f"encoded {type(obj).__name__} on a table hit")


def sweep_points(n=64):
    """Points that share their workload, spec and machine objects."""
    plan = FaultPlan(
        name="t", faults=(DropoutFault(core=1, start_s=0.0, end_s=1.0),)
    )
    return [
        RunPoint(
            ALL_WORKLOADS[i % len(ALL_WORKLOADS)],
            ALL_POLICY_SPECS[i % len(ALL_POLICY_SPECS)],
            SimulationConfig(
                duration_s=0.01, threshold_c=80.0 + 0.125 * i,
                fault_plan=plan if i % 2 else None,
            ),
        )
        for i in range(n)
    ]


class TestEncoding:
    def test_edge_values_match_the_oracle(self):
        tree = (
            float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308,
            True, 1, False, 0, "é中\U0001f600", "\"\\\x00\t",
            Color.RED, Color.BLUE, Color.PAIR, Level.HIGH, Mode.FAST,
            (1, [2, (3,)]), {"b": 1, "a": [None]}, {3: "x", 1: "y"},
            Frozen(Frozen(1.5), Open([1])), Open(Frozen("z")),
        )
        assert stable_hash(*tree) == oracle_hash(*tree)
        assert stable_hash(tree) == oracle_hash(tree)

    def test_run_points_match_the_oracle(self):
        for point in sweep_points(32):
            assert config_hash(point, "v") == point_oracle(point, "v")

    def test_unknown_types_are_rejected(self):
        for bad in (object(), {1, 2}, Frozen(object()), [b"bytes"]):
            with pytest.raises(TypeError):
                stable_hash(bad)


class TestTableSafety:
    def test_mutated_payloads_get_new_keys(self, table):
        for box, mutate in (
            (Open(1), lambda o: setattr(o, "value", 2)),
            (Frozen([1]), lambda o: o.a.append(2)),
            (Frozen((1, [2])), lambda o: o.a[1].append(3)),
            (Frozen({"k": 1}), lambda o: o.a.update(k=2)),
            (Frozen(Open(1)), lambda o: setattr(o.a, "value", 2)),
        ):
            before = stable_hash(box)
            mutate(box)
            assert stable_hash(box) != before
            assert stable_hash(box) == oracle_hash(box)
        assert not table._FRAGMENTS

    def test_only_immutable_frozen_objects_are_kept(self, table):
        inner = Frozen(1, (2.0, "x", Color.RED))
        stable_hash(Frozen(inner, [inner]), Open(inner))
        assert [entry[0] for entry in table._FRAGMENTS.values()] == [inner]

    def test_table_pins_its_objects_and_stays_bounded(self, table):
        objs = [Frozen(i) for i in range(50)]
        for i, obj in enumerate(objs):
            assert stable_hash(obj) == oracle_hash(obj)
            assert len(table._FRAGMENTS) == min(i + 1, 8)
        for key, (obj, text) in table._FRAGMENTS.items():
            assert id(obj) == key
            assert text == json.dumps(canonicalize(obj), separators=(",", ":"))
        # Oldest first out: the last eight remain.
        assert [e[0] for e in table._FRAGMENTS.values()] == objs[-8:]

    def test_reused_id_keys_correctly(self, table, monkeypatch):
        """An object that takes the id of a kept or evicted object gets
        its own key. CPython reuses the address of a freed object for the
        next one of its size; the test forces the collision by giving
        every ``Frozen(_, "reused")`` the same id."""
        real_id = id

        def reused_id(obj):
            if isinstance(obj, Frozen) and obj.b == "reused":
                return -1
            return real_id(obj)

        monkeypatch.setattr(table, "id", reused_id, raising=False)
        first = Frozen(1.0, "reused")
        first_key = stable_hash(first)
        assert table._FRAGMENTS[-1][0] is first
        second = Frozen(2.0, "reused")  # while the first is kept
        assert stable_hash(second) == oracle_hash(second) != first_key
        for i in range(8):  # evict whatever holds the id
            stable_hash(Frozen(i))
        assert -1 not in table._FRAGMENTS
        del first, second
        third = Frozen(3.0, "reused")
        assert stable_hash(third) == oracle_hash(third)
        assert table._FRAGMENTS[-1][0] is third

    def test_threads_key_identically(self, table):
        """Four threads keying 64 points through an 8-entry table race
        on every insertion and eviction; five rounds of it."""
        points = sweep_points(64)
        expected = [config_hash(p, "v") for p in points]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def key_all(offset: int) -> List[str]:
            """Key every point, starting at ``offset``, in input order."""
            barrier.wait(timeout=60)
            order = list(range(offset, len(points))) + list(range(offset))
            keys = {i: config_hash(points[i], "v") for i in order}
            return [keys[i] for i in range(len(points))]

        try:
            with ThreadPoolExecutor(4) as pool:
                for _ in range(5):
                    table._FRAGMENTS.clear()
                    barrier = threading.Barrier(4)
                    futures = [
                        pool.submit(key_all, k) for k in (0, 16, 32, 48)
                    ]
                    results = [f.result(timeout=60) for f in futures]
                    assert results == [expected] * 4
                    assert len(table._FRAGMENTS) <= 8
        finally:
            sys.setswitchinterval(interval)


class TestPointKeys:
    def test_hits_equal_the_oracle_and_cold_keys(self, cold, monkeypatch):
        """Every point of the 156-point grid and every pinned point keys
        the same from a cold table, on first sight and as a table hit,
        and the hit encodes nothing."""
        batch = [(p, "v") for p in grid_points()] + [
            (p, "pinned") for p in _pinned_points().values()
        ]
        cold_keys = []
        for point, version in batch:
            cold._FRAGMENTS.clear()
            cold._POINT_KEYS.clear()
            cold_keys.append(config_hash(point, version))
        first = [config_hash(p, v) for p, v in batch]
        assert len(cold._POINT_KEYS) == len(batch) == 161
        monkeypatch.setattr(cold, "_encode", no_encoding)
        hits = [config_hash(p, v) for p, v in batch]
        assert hits == first == cold_keys
        assert hits == [point_oracle(p, v) for p, v in batch]
        assert hits[-len(PINNED_KEYS):] == [
            PINNED_KEYS[name] for name in _pinned_points()
        ]

    def test_version_is_part_of_the_key(self, cold):
        point = grid_points()[30]
        keys = [config_hash(point, v) for v in ("a", "b", "a", "b")]
        assert keys == [point_oracle(point, v) for v in ("a", "b", "a", "b")]
        assert keys[0] != keys[1]
        assert len(cold._POINT_KEYS) == 2

    def test_entries_pin_their_objects(self, cold):
        point = _pinned_points()["fault-plan"]
        config_hash(point, "pinned")
        ((ident, entry),) = cold._POINT_KEYS.items()
        parts = (point.workload, point.spec, point.config)
        assert all(held is part for held, part in zip(entry, parts))
        assert ident == (
            id(point.workload), id(point.spec), id(point.config), "pinned"
        )

    def test_mutable_parts_are_never_served_from_the_table(self, cold):
        """A point holding a list or a non-frozen dataclass is keyed
        afresh every time, so mutating the part moves its key."""
        w, spec = ALL_WORKLOADS[0], ALL_POLICY_SPECS[3]
        for point, mutate in (
            (RunPoint(w, spec, Frozen([1.0])), lambda p: p.config.a.append(2)),
            (RunPoint(w, spec, Open(1.0)),
             lambda p: setattr(p.config, "value", 2.0)),
            (RunPoint(Open("w"), spec, SimulationConfig()),
             lambda p: setattr(p.workload, "value", "x")),
            (RunPoint(w, Frozen((1, [2])), SimulationConfig()),
             lambda p: p.spec.a[1].append(3)),
        ):
            before = config_hash(point, "v")
            assert config_hash(point, "v") == before == point_oracle(point, "v")
            mutate(point)
            after = config_hash(point, "v")
            assert after != before
            assert after == point_oracle(point, "v")
        assert not cold._POINT_KEYS

    def test_reused_ids_key_correctly(self, table, monkeypatch):
        """A point whose parts take the ids of a kept or evicted entry's
        gets its own key; the collision is forced by giving every
        ``Frozen(_, "reused")`` configuration the same id."""
        real_id = id

        def reused_id(obj):
            if isinstance(obj, Frozen) and obj.b == "reused":
                return -1
            return real_id(obj)

        monkeypatch.setattr(table, "id", reused_id, raising=False)
        w, spec = ALL_WORKLOADS[1], ALL_POLICY_SPECS[5]
        first = RunPoint(w, spec, Frozen(1.0, "reused"))
        first_key = config_hash(first, "v")
        ident = (real_id(w), real_id(spec), -1, "v")
        assert table._POINT_KEYS[ident][2] is first.config
        second = RunPoint(w, spec, Frozen(2.0, "reused"))  # while kept
        assert config_hash(second, "v") == point_oracle(second, "v")
        assert config_hash(second, "v") != first_key
        assert config_hash(first, "v") == first_key
        for i in range(8):  # evict whatever holds the ids
            config_hash(RunPoint(w, spec, Frozen(float(i))), "v")
        assert ident not in table._POINT_KEYS
        del first, second
        third = RunPoint(w, spec, Frozen(3.0, "reused"))
        assert config_hash(third, "v") == point_oracle(third, "v")
        assert table._POINT_KEYS[ident][2] is third.config

    def test_bound_holds_and_drops_the_oldest_first(self, table):
        points = [
            RunPoint(ALL_WORKLOADS[0], None, Frozen(float(i)))
            for i in range(20)
        ]
        for i, point in enumerate(points):
            assert config_hash(point, "v") == point_oracle(point, "v")
            assert len(table._POINT_KEYS) == min(i + 1, 8)
            assert config_hash(points[max(0, i - 7)], "v") == point_oracle(
                points[max(0, i - 7)], "v"
            )
        kept = [entry[2] for entry in table._POINT_KEYS.values()]
        assert kept == [p.config for p in points[-8:]]
        assert all(a is p.config for a, p in zip(kept, points[-8:]))

    def test_threads_key_identically(self, table):
        """Four threads keying 64 points twice through an 8-entry table
        race on every insertion, eviction and hit; five rounds of it."""
        points = sweep_points(64)
        expected = [point_oracle(p, "v") for p in points]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def key_all(offset: int) -> List[str]:
            """Key every point twice, from ``offset``, in input order."""
            barrier.wait(timeout=60)
            order = list(range(offset, len(points))) + list(range(offset))
            keys = {}
            for i in order:
                keys[i] = config_hash(points[i], "v")
                assert config_hash(points[i], "v") == keys[i]
            return [keys[i] for i in range(len(points))]

        try:
            with ThreadPoolExecutor(4) as pool:
                for _ in range(5):
                    table._FRAGMENTS.clear()
                    table._POINT_KEYS.clear()
                    barrier = threading.Barrier(4)
                    futures = [
                        pool.submit(key_all, k) for k in (0, 16, 32, 48)
                    ]
                    results = [f.result(timeout=60) for f in futures]
                    assert results == [expected] * 4
                    assert len(table._POINT_KEYS) <= 8
        finally:
            sys.setswitchinterval(interval)


# -- Hypothesis property tests (skipped when hypothesis is absent) --------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([-0.0, 5e-324, float("nan"), float("-inf")])
    | st.text()
    | st.text(alphabet="\"\\/\b\f\n\r\t\x00\x1fé \U0001f600")
    | st.sampled_from(list(Color) + list(Level) + list(Mode))
)


def _extend(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.builds(Frozen, children, children)
        | st.builds(Open, children)
        # The same object twice, so a kept fragment is reused in one key.
        | children.map(lambda c: (Frozen(c), Frozen(c)))
        | st.builds(Frozen, children).map(lambda f: [f, Frozen(f), f])
    )


TREES = st.recursive(LEAVES, _extend, max_leaves=24)


@settings(max_examples=60, deadline=None)
@given(trees=st.lists(TREES, min_size=1, max_size=3))
def test_stable_hash_is_the_oracle_digest(trees):
    """Byte for byte the ``json.dumps`` text, cold and again warm."""
    expected = oracle_hash(*trees)
    assert stable_hash(*trees) == expected
    assert stable_hash(*trees) == expected

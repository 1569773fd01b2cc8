"""Vocabulary types: normalization, box projection, and their invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesched.agents import batch_units_from_domain
from edgesched.domain import (CPU_MAX, CPU_MIN, MEM_MAX, MEM_MIN,
                              ActionVector, DimensionError,
                              NormalizationConfig, RawMetrics, StateVector, Transition,
                              ValidationError, action_from_unit,
                              default_nodes, default_services,
                              normalize_state)
from tests.conftest import make_raw

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestClusterDefaults:
    def test_node_tiers(self):
        nodes = default_nodes()
        assert len(nodes) == 8
        edge = [n for n in nodes if n.tier == "edge"]
        cloud = [n for n in nodes if n.tier == "cloud"]
        assert len(edge) == 4 and len(cloud) == 4
        for n in edge:
            assert (n.cpu_capacity, n.mem_capacity) == (2.0, 4096.0)
            assert n.base_network_latency == 5.0
        for n in cloud:
            assert (n.cpu_capacity, n.mem_capacity) == (8.0, 16384.0)
            assert n.base_network_latency == 40.0

    def test_service_roster(self):
        services = default_services()
        assert len(services) == 8
        names = {s.name for s in services}
        assert {"frontend", "user", "cart", "catalogue"} <= names
        node_ids = {n.node_id for n in default_nodes()}
        for s in services:
            assert s.home_node in node_ids
            assert CPU_MIN <= s.initial_cpu_request <= CPU_MAX
            assert MEM_MIN <= s.initial_mem_request <= MEM_MAX
            assert s.cpu_cost_per_request > 0

    def test_capacity_validation(self):
        node = default_nodes()[0]
        with pytest.raises(ValidationError):
            dataclasses.replace(node, cpu_capacity=0.0)
        with pytest.raises(ValidationError):
            dataclasses.replace(node, mem_capacity=-1.0)


class TestNormalizeState:
    def test_direct_ratios(self):
        raw = make_raw(n=1, cpu_used=1.0, cpu_alloc=2.0, mem_used=512.0,
                       mem_alloc=1024.0, latency=150.0, qps=500.0)
        s = normalize_state(raw, NormalizationConfig(l_max=300.0, q_max=400.0))
        assert s.cpu_util[0] == pytest.approx(0.5)
        assert s.mem_util[0] == pytest.approx(0.5)
        # l_max = 2*l_target puts the objective boundary at mid-scale
        assert s.latency_norm[0] == pytest.approx(0.5)
        assert s.qps_norm[0] == 1.0  # 500 > q_max clamps

    def test_block_order_and_length(self):
        raw = make_raw(n=2)
        s = normalize_state(raw, NormalizationConfig())
        v = s.vec
        assert v.shape == (8,)
        np.testing.assert_allclose(v[0:2], s.cpu_util)
        np.testing.assert_allclose(v[2:4], s.mem_util)
        np.testing.assert_allclose(v[4:6], s.latency_norm)
        np.testing.assert_allclose(v[6:8], s.qps_norm)

    @given(cpu_used=st.floats(0, 50), cpu_alloc=st.floats(0.01, 50),
           mem_used=st.floats(0, 1e5), mem_alloc=st.floats(1.0, 1e5),
           latency=st.floats(0, 1e5), qps=st.floats(0, 1e5))
    @settings(max_examples=200)
    def test_components_always_unit_interval(self, cpu_used, cpu_alloc,
                                             mem_used, mem_alloc, latency, qps):
        raw = make_raw(n=1, cpu_used=cpu_used, cpu_alloc=cpu_alloc,
                       mem_used=mem_used, mem_alloc=mem_alloc,
                       latency=latency, qps=qps)
        v = normalize_state(raw, NormalizationConfig()).vec
        assert np.all(v >= 0.0) and np.all(v <= 1.0)


class TestActionBox:
    def test_unit_map_anchors(self):
        a = action_from_unit(np.zeros(4))
        assert a.cpu_alloc[0] == pytest.approx(1.05)
        assert a.mem_alloc[0] == pytest.approx(1056.0)
        hi = action_from_unit(np.ones(4))
        lo = action_from_unit(-np.ones(4))
        np.testing.assert_allclose(hi.cpu_alloc, CPU_MAX)
        np.testing.assert_allclose(hi.mem_alloc, MEM_MAX)
        np.testing.assert_allclose(lo.cpu_alloc, CPU_MIN)
        np.testing.assert_allclose(lo.mem_alloc, MEM_MIN)

    def test_unit_map_dimension_error(self):
        with pytest.raises(DimensionError):
            action_from_unit(np.zeros(3))  # odd length has no (cpu, mem) split

    def test_inverse_anchors(self):
        a = ActionVector(cpu_alloc=[1.05, 2.0], mem_alloc=[1056.0, 2048.0])
        u = batch_units_from_domain(a.vec)
        assert u[0] == pytest.approx(0.0, abs=1e-12)
        assert u[1] == pytest.approx(1.0)
        assert u[2] == pytest.approx(0.0, abs=1e-12)
        assert u[3] == pytest.approx(1.0)

    def test_round_trip_random_actions(self, rng):
        for _ in range(100):
            cpu = rng.uniform(CPU_MIN, CPU_MAX, 3)
            mem = rng.uniform(MEM_MIN, MEM_MAX, 3)
            a = ActionVector(cpu_alloc=cpu, mem_alloc=mem)
            b = action_from_unit(batch_units_from_domain(a.vec))
            np.testing.assert_allclose(b.cpu_alloc, cpu, atol=1e-9)
            np.testing.assert_allclose(b.mem_alloc, mem, atol=1e-9)

    @given(st.lists(finite_floats, min_size=1, max_size=5),
           st.lists(finite_floats, min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_construction_clamps_into_box(self, cpu, mem):
        n = min(len(cpu), len(mem))
        a = ActionVector(cpu_alloc=cpu[:n], mem_alloc=mem[:n])
        assert np.all(a.cpu_alloc >= CPU_MIN) and np.all(a.cpu_alloc <= CPU_MAX)
        assert np.all(a.mem_alloc >= MEM_MIN) and np.all(a.mem_alloc <= MEM_MAX)
        again = ActionVector(cpu_alloc=a.cpu_alloc, mem_alloc=a.mem_alloc)
        np.testing.assert_array_equal(again.cpu_alloc, a.cpu_alloc)
        np.testing.assert_array_equal(again.mem_alloc, a.mem_alloc)

    def test_flat_layout(self):
        a = ActionVector(cpu_alloc=[0.5, 1.5], mem_alloc=[128.0, 256.0])
        np.testing.assert_allclose(a.vec, [0.5, 1.5, 128.0, 256.0])
        assert a.n_services == 2


class TestTransition:
    def test_reward_must_be_finite(self):
        raw = make_raw(n=1)
        s = normalize_state(raw, NormalizationConfig())
        a = ActionVector(cpu_alloc=[1.0], mem_alloc=[512.0])
        with pytest.raises(ValidationError):
            Transition(state=s, action=a, reward=float("inf"),
                       next_state=s, done=False)

    def test_holds_fields(self):
        raw = make_raw(n=1)
        s = normalize_state(raw, NormalizationConfig())
        a = ActionVector(cpu_alloc=[1.0], mem_alloc=[512.0])
        t = Transition(state=s, action=a, reward=-0.5, next_state=s, done=True)
        assert t.done and t.reward == -0.5


# One valid 3-service value per field; each field's rows differ so block order shows.
GOOD = {
    RawMetrics: {"cpu_used": [0.5, 0.6, 0.7], "cpu_alloc": [1.0, 1.1, 1.2],
                 "mem_used": [256.0, 257.0, 258.0], "mem_alloc": [512.0, 513.0, 514.0],
                 "latency_ms": [90.0, 91.0, 92.0], "qps": [10.0, 11.0, 12.0]},
    StateVector: {"cpu_util": [0.1, 0.2, 0.3], "mem_util": [0.4, 0.5, 0.6],
                  "latency_norm": [0.7, 0.8, 0.9], "qps_norm": [0.05, 0.15, 0.25]},
    ActionVector: {"cpu_alloc": [0.5, 1.0, 1.5], "mem_alloc": [128.0, 256.0, 512.0]},
}

# Field values that cannot form one 2-D block with the other fields. Values are
# checked where they enter (specs, loaders, ClusterSim.step), so NaN, inf and
# sign are not the constructors' concern; shape still is.
BAD_VALUES = {
    "ragged": [0.5, 0.5],
    "scalar": 0.5,
    "2-D": np.full((1, 3), 0.5),
    "string": "abc",
}


def per_field_checks(values: dict) -> str | None:
    """The shape part of the constructors' per-field checks from before fields
    shared one block: the first field that is not a numeric 1-D vector of the
    first field's length, or None."""
    n = None
    for name, v in values.items():
        try:
            arr = np.asarray(v, dtype=np.float64)
        except ValueError:
            return name
        n = arr.size if n is None else n
        if arr.ndim != 1 or arr.size != n:
            return name
    return None


BAD_CASES = [(cls, name, kind) for cls, fields in GOOD.items() for name in fields
             for kind in BAD_VALUES]


class TestOneBlock:
    @pytest.mark.parametrize("cls,name,kind", BAD_CASES,
                             ids=[f"{c.__name__}-{n}-{k}" for c, n, k in BAD_CASES])
    def test_failure_matches_per_field_checks(self, cls, name, kind):
        assert per_field_checks(GOOD[cls]) is None
        values = dict(GOOD[cls], **{name: BAD_VALUES[kind]})
        assert per_field_checks(values) is not None
        with pytest.raises(DimensionError, match=cls.__name__):
            cls(**values)

    @pytest.mark.parametrize("cls", list(GOOD), ids=lambda c: c.__name__)
    def test_fields_and_vec_are_read_only_copies(self, cls):
        inputs = {name: np.array(v) for name, v in GOOD[cls].items()}
        obj = cls(**inputs)
        for name, arr in inputs.items():
            arr[0] = 1.5  # the object copied its inputs
            assert getattr(obj, name)[0] == GOOD[cls][name][0]
            with pytest.raises(ValueError, match="read-only"):
                getattr(obj, name)[0] = 0.5
        if cls is not RawMetrics:
            with pytest.raises(ValueError, match="read-only"):
                obj.vec[0] = 0.5

    @pytest.mark.parametrize("cls", [StateVector, ActionVector], ids=lambda c: c.__name__)
    def test_vec_keeps_block_order(self, cls):
        obj = cls(**GOOD[cls])
        # [cpu, mem, latency, qps] / [cpu, mem]: the dataclass field order
        np.testing.assert_array_equal(obj.vec, np.concatenate(list(GOOD[cls].values())))
        assert obj.vec.shape == (len(GOOD[cls]) * 3,)

    def test_replace_revalidates(self):
        action = ActionVector(**GOOD[ActionVector])
        moved = dataclasses.replace(action, cpu_alloc=[9.0, 0.0, 1.0])
        np.testing.assert_array_equal(moved.cpu_alloc, [CPU_MAX, CPU_MIN, 1.0])
        np.testing.assert_array_equal(moved.mem_alloc, action.mem_alloc)
        # infinities clamp to the box edges; NaN is left for ClusterSim.step to reject
        edged = dataclasses.replace(action, mem_alloc=[np.inf, -np.inf, 1.0])
        np.testing.assert_array_equal(edged.mem_alloc, [MEM_MAX, MEM_MIN, MEM_MIN])
        state = StateVector(**GOOD[StateVector])
        clipped = dataclasses.replace(state, qps_norm=[-1.0, 0.5, 2.0])
        np.testing.assert_array_equal(clipped.qps_norm, [0.0, 0.5, 1.0])

"""Vocabulary types: normalization, box projection, and their invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesched.domain import (CPU_MAX, CPU_MIN, MEM_MAX, MEM_MIN,
                              ActionVector, DimensionError,
                              NormalizationConfig, RawMetrics, StateVector, Transition,
                              ValidationError, action_from_unit,
                              default_nodes, default_services,
                              normalize_state, unit_from_action)
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

    def test_rejects_non_finite_naming_field(self):
        # rejection happens at metric construction, naming the bad field
        raw = make_raw(n=1)
        with pytest.raises(ValidationError, match="mem_used"):
            dataclasses.replace(raw, mem_used=np.array([np.nan]))

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
        u = unit_from_action(a)
        assert u[0] == pytest.approx(0.0, abs=1e-12)
        assert u[1] == pytest.approx(1.0)
        assert u[2] == pytest.approx(0.0, abs=1e-12)
        assert u[3] == pytest.approx(1.0)

    def test_round_trip_random_actions(self, rng):
        for _ in range(100):
            cpu = rng.uniform(CPU_MIN, CPU_MAX, 3)
            mem = rng.uniform(MEM_MIN, MEM_MAX, 3)
            a = ActionVector(cpu_alloc=cpu, mem_alloc=mem)
            b = action_from_unit(unit_from_action(a))
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

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            ActionVector(cpu_alloc=[np.nan], mem_alloc=[100.0])

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

BAD_VALUES = {
    "nan": [0.5, np.nan, 0.5],
    "inf": [np.inf, 0.5, 0.5],
    "negative": [0.5, 0.5, -1.0],
    "zero": [0.0, 0.5, 0.5],
    "ragged": [0.5, 0.5],
    "scalar": 0.5,
    "2-D": np.full((1, 3), 0.5),
    "string": "abc",
}


def per_field_checks(cls, values: dict) -> None:
    """Inline copy of the constructors' per-field checks from before fields
    shared one block: raises whatever they raised for these values."""
    def as_float(v, name):
        arr = np.asarray(v, dtype=np.float64)
        if arr.ndim != 1:
            raise DimensionError(f"{name} must be a 1-D vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} contains non-finite values")
        return arr

    if cls is ActionVector:
        cpu = as_float(values["cpu_alloc"], "cpu_alloc")
        mem = as_float(values["mem_alloc"], "mem_alloc")
        if cpu.size != mem.size:
            raise DimensionError(
                f"cpu_alloc has length {cpu.size} but mem_alloc has length {mem.size}")
        return
    n = None
    arrays = {}
    for name, v in values.items():
        arr = arrays[name] = as_float(v, name)
        if cls is RawMetrics and np.any(arr < 0):
            raise ValidationError(f"{name} contains negative values")
        if n is None:
            n = arr.size
        elif arr.size != n:
            raise DimensionError(f"{name} has length {arr.size}, expected {n}")
    if cls is RawMetrics and (np.any(arrays["cpu_alloc"] <= 0)
                              or np.any(arrays["mem_alloc"] <= 0)):
        raise ValidationError("allocations must be strictly positive")


BAD_CASES = [(cls, name, kind) for cls, fields in GOOD.items() for name in fields
             for kind in BAD_VALUES
             # negative and zero values are clamped, not rejected, outside RawMetrics
             if cls is RawMetrics or kind not in ("negative", "zero")
             if kind != "zero" or name in ("cpu_alloc", "mem_alloc")]


class TestOneBlock:
    @pytest.mark.parametrize("cls,name,kind", BAD_CASES,
                             ids=[f"{c.__name__}-{n}-{k}" for c, n, k in BAD_CASES])
    def test_failure_matches_per_field_checks(self, cls, name, kind):
        values = dict(GOOD[cls], **{name: BAD_VALUES[kind]})
        with pytest.raises(ValueError) as expected:
            per_field_checks(cls, values)
        with pytest.raises(ValueError) as got:
            cls(**values)
        # the same class and message, so the same field is named
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    def test_first_bad_field_in_field_order_is_named(self):
        values = dict(GOOD[RawMetrics], mem_used=[0.5, np.nan, 0.5], qps=[0.5, 0.5])
        with pytest.raises(ValidationError, match="mem_used contains non-finite"):
            RawMetrics(**values)

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
        raw = RawMetrics(**GOOD[RawMetrics])
        with pytest.raises(ValidationError, match="allocations must be strictly positive"):
            dataclasses.replace(raw, mem_alloc=[512.0, 0.0, 512.0])
        with pytest.raises(DimensionError, match="qps has length 2, expected 3"):
            dataclasses.replace(raw, qps=[1.0, 2.0])
        action = ActionVector(**GOOD[ActionVector])
        with pytest.raises(ValidationError, match="mem_alloc contains non-finite"):
            dataclasses.replace(action, mem_alloc=[np.inf, 1.0, 1.0])
        moved = dataclasses.replace(action, cpu_alloc=[9.0, 0.0, 1.0])
        np.testing.assert_array_equal(moved.cpu_alloc, [CPU_MAX, CPU_MIN, 1.0])
        np.testing.assert_array_equal(moved.mem_alloc, action.mem_alloc)
        state = StateVector(**GOOD[StateVector])
        clipped = dataclasses.replace(state, qps_norm=[-1.0, 0.5, 2.0])
        np.testing.assert_array_equal(clipped.qps_norm, [0.0, 0.5, 1.0])

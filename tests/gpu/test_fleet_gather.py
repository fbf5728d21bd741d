"""Sub-populations by gather: bit-identical to deriving on a sub-fleet.

Job pricing solves each batch on a controller gathered by index from the
day fleet (:meth:`~repro.gpu.GPUFleet.solver_at`) rather than on a
materialized ``take(...).with_coolant(...)`` sub-fleet.  Every gathered
quantity is an elementwise derivation of per-GPU inputs, so the two must
agree on every bit of every solve output, dtype and work counter.  The
p-state tables are a function of the SKU alone and are built once per
spec, and a gather of a validated defect assignment stays valid.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import get_preset
from repro.gpu.defects import DefectAssignment
from repro.gpu.dvfs import DvfsController, ladder_tables
from repro.gpu.specs import get_spec, list_specs

PRESETS = ("longhorn", "summit", "corona")


@pytest.fixture(scope="module")
def fleets():
    return {
        name: get_preset(name, seed=5, scale=0.1).fleet_for_day(2)
        for name in PRESETS
    }


def _index_arrays(n_max: int):
    return st.lists(st.integers(0, n_max - 1), min_size=1, max_size=40)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)
@given(
    preset=st.sampled_from(PRESETS),
    picks=_index_arrays(10_000),
    seed=st.integers(0, 2**16),
)
def test_gathered_solve_equals_sub_fleet_solve(fleets, preset, picks, seed):
    fleet = fleets[preset]
    idx = np.asarray(picks, dtype=np.int64) % fleet.n
    rng = np.random.default_rng(seed)
    coolant = fleet.coolant_c[idx] + rng.normal(0.0, 2.0, size=idx.size)
    act = rng.uniform(0.0, 1.0, size=idx.size)
    dram = rng.uniform(0.0, 1.0, size=idx.size)

    sub = fleet.take(idx).with_coolant(coolant)
    controller, arrays = fleet.solver_at(idx, coolant)
    for name, derived in (
        ("efficiency", sub.throughput_efficiency()),
        ("power_cap_w", sub.power_cap_w(None)),
        ("f_cap_mhz", sub.frequency_cap_mhz()),
        ("mem_bandwidth_gbs", sub.memory_bandwidth_gbs()),
        ("r_theta", sub.effective_r_theta()),
    ):
        gathered = getattr(arrays, name)
        assert gathered.dtype == derived.dtype
        np.testing.assert_array_equal(gathered, derived)

    dither_seed = int(rng.integers(2**32))
    want = sub.controller.solve_steady(
        act, dram, sub.throughput_efficiency(),
        power_cap_w=sub.power_cap_w(None),
        f_cap_mhz=sub.frequency_cap_mhz(),
        rng=np.random.default_rng(dither_seed),
    )
    got = controller.solve_steady(
        act, dram, arrays.efficiency,
        power_cap_w=arrays.power_cap_w,
        f_cap_mhz=arrays.f_cap_mhz,
        rng=np.random.default_rng(dither_seed),
    )
    for field in dataclasses.fields(want):
        a = getattr(got, field.name)
        b = getattr(want, field.name)
        assert a.dtype == b.dtype, field.name
        np.testing.assert_array_equal(a, b, err_msg=field.name)
    assert controller.stats == sub.controller.stats


def test_take_derives_nothing_twice(fleets):
    """take() gathers the parent's power-model caches and FleetArrays."""
    fleet = fleets["summit"]
    idx = np.asarray([5, 0, 17, 5])
    fleet.arrays  # derived once on first use, then gathered by take()
    sub = fleet.take(idx)
    assert sub.thermal_model.r_theta is sub.arrays.r_theta
    np.testing.assert_array_equal(sub.arrays.r_theta, sub.effective_r_theta())
    assert sub.power_model.silicon is sub.silicon
    np.testing.assert_array_equal(
        sub.power_model.v_mult_sq, (1.0 + sub.silicon.voltage_offset) ** 2
    )
    np.testing.assert_array_equal(
        sub.power_model.leakage_scale_w_f32(),
        (sub.silicon.leakage_scale * sub.spec.leakage_nominal_w).astype(
            np.float32
        ),
    )
    assert sub.with_coolant(sub.coolant_c + 1.0).arrays is sub.arrays


@pytest.mark.parametrize("name", list_specs())
def test_ladder_tables_built_once_per_spec(fleets, name):
    spec = get_spec(name)
    assert ladder_tables(spec) is ladder_tables(spec)
    fleet = fleets["longhorn"]
    a, _ = fleet.solver_at(np.arange(4), fleet.coolant_c[:4])
    b, _ = fleet.solver_at(np.arange(3, 9), fleet.coolant_c[3:9])
    assert a.ladder is b.ladder is fleet.controller.ladder
    assert a.ladder is ladder_tables(fleet.spec)
    tables = ladder_tables(spec)
    for table in (tables.pstates, tables.basis, tables.vsq):
        assert not table.flags.writeable
    np.testing.assert_array_equal(tables.pstates, spec.pstate_array())
    np.testing.assert_array_equal(
        tables.basis,
        spec.c_eff_w_per_v2mhz * spec.voltage_at(tables.pstates) ** 2
        * tables.pstates,
    )


def test_controller_shares_spec_tables(fleets):
    fleet = fleets["corona"]
    other = DvfsController(
        fleet.spec, fleet.power_model, fleet.thermal_model, fleet.policy
    )
    assert other.ladder is fleet.controller.ladder
    assert other.pstates() is fleet.controller.pstates()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(preset=st.sampled_from(PRESETS), picks=_index_arrays(10_000))
def test_defect_gather_stays_valid(fleets, preset, picks):
    defects = fleets[preset].defects
    idx = np.asarray(picks) % defects.n
    sub = defects.take(idx)
    # Re-running the validator on the gathered arrays must pass.
    revalidated = DefectAssignment(
        **{f.name: getattr(sub, f.name) for f in dataclasses.fields(sub)}
    )
    assert revalidated.n == idx.size
    np.testing.assert_array_equal(revalidated.kind, defects.kind[idx])


def test_defect_gather_rejects_non_1d_indices(fleets):
    defects = fleets["longhorn"].defects
    with pytest.raises(ValueError, match="1-D"):
        defects.take(np.zeros((2, 2), dtype=np.int64))

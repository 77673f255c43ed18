import sys
import types

import pytest

import layers
from layers import LayerTracer, TargetError, resolve, self_time


@pytest.fixture
def fake_modules():
    """A target module with a function and a method, and a module importing both."""
    target = types.ModuleType("perf_fake_target")
    exec(
        "def work(x):\n"
        "    return helper(x) + 1\n"
        "def helper(x):\n"
        "    return x * 2\n"
        "class Base:\n"
        "    def method(self, x):\n"
        "        return work(x)\n"
        "class Child(Base):\n"
        "    pass\n",
        target.__dict__,
    )
    user = types.ModuleType("perf_fake_user")
    user.work = target.work
    user.Child = target.Child
    sys.modules[target.__name__] = target
    sys.modules[user.__name__] = user
    yield target, user
    del sys.modules[target.__name__], sys.modules[user.__name__]


TABLE = {
    "outer": ("perf_fake_target:Child.method",),
    "inner": ("perf_fake_target:work", "perf_fake_target:helper"),
}


def test_self_time_subtracts_the_union_of_overlapping_children():
    # Children [1,4] and [3,6] overlap; [8,12] sticks out of the parent.
    assert self_time(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0), (8.0, 12.0)]) == pytest.approx(3.0)
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(0.0, 10.0), (2.0, 3.0)]) == 0.0


def test_end_op_attributes_self_time_per_layer_on_a_synthetic_tree():
    tracer = LayerTracer({"a": (), "b": ()})
    # root [0,10] > a [1,9] > {b [2,4], b [3,7]} ; a [9.5,10]
    tracer.spans.extend(
        [
            ["op", "op", 0.0, 10.0, None, 0],
            ["A", "a", 1.0, 9.0, 0, 0],
            ["B", "b", 2.0, 4.0, 1, 0],
            ["B", "b", 3.0, 7.0, 1, 0],
            ["A", "a", 9.5, 10.0, 0, 0],
        ]
    )
    tracer.end_op()
    assert tracer.self_s["a"] == pytest.approx((8.0 - 5.0) + 0.5)
    assert tracer.self_s["b"] == pytest.approx(2.0 + 4.0)
    out = tracer.metrics()
    assert out["a.calls"] == 2 and out["b.calls"] == 2
    assert out["unattributed_share"] == pytest.approx(1.5 / 10.0)
    assert tracer.spans == []


def test_install_wraps_every_binding_and_restores_identity(fake_modules):
    target, user = fake_modules
    work, helper, method = target.work, target.helper, target.Base.method
    tracer = LayerTracer(TABLE).install()
    try:
        assert target.work is not work and user.work is target.work
        assert vars(target.Base)["method"] is not method
        late = types.ModuleType("perf_fake_late")
        late.helper = target.helper  # imported by name after install
        sys.modules[late.__name__] = late
        with tracer.op(0):
            assert user.Child().method(3) == 7
        assert target.work(1) == 3  # outside an op: not recorded
    finally:
        tracer.uninstall()
    try:
        assert target.work is work and user.work is work and target.helper is helper
        assert late.helper is helper
        assert vars(target.Base)["method"] is method and "method" not in vars(target.Child)
    finally:
        del sys.modules["perf_fake_late"]
    names = [span[0] for span in tracer.spans]
    assert names == ["op", "Child.method", "work", "helper"]
    assert [span[4] for span in tracer.spans] == [None, 0, 1, 2]


def test_missing_target_fails_before_anything_is_wrapped(fake_modules):
    target, _ = fake_modules
    work = target.work
    for bad in (
        "perf_fake_target:renamed",
        "perf_fake_target:Base.renamed",
        "perf_fake_missing_module:work",
        "perf_fake_target",
    ):
        with pytest.raises(TargetError):
            LayerTracer({"inner": ("perf_fake_target:work", bad)}).install()
        assert target.work is work


def test_resolve_finds_the_defining_class(fake_modules):
    target, _ = fake_modules
    original, owner, name = resolve("perf_fake_target:Child.method")
    assert owner is target.Base and name == "method"
    assert original is vars(target.Base)["method"]
    assert resolve("perf_fake_target:work") == (target.work, None, "work")


def test_declared_layers_resolve():
    for targets in layers.LAYERS.values():
        for target in targets:
            resolve(target)


def test_real_operation_is_fully_attributed():
    from repro import KPMConfig, compute_dos
    from repro.lattice import paper_cubic_hamiltonian

    hamiltonian = paper_cubic_hamiltonian(4, format="csr")
    config = KPMConfig(num_moments=16, num_random_vectors=4)
    tracer = LayerTracer().install()
    try:
        with tracer.op(0):
            compute_dos(hamiltonian, config, backend="gpu-sim")
        tracer.end_op()
    finally:
        tracer.uninstall()
    out = tracer.metrics()
    assert out["sparse.sweep_calls"] == 4 * 15
    assert out["sparse.columns_swept"] == 4 * 15
    assert out["gpu.launches"] == 2
    assert out["gpu.htod_bytes"] > 0 and out["gpu.dtoh_bytes"] > 0
    assert out["cluster.useful_vector_ratio"] == 1.0
    assert out["kpm.calls"] >= 4
    assert sum(out[f"{layer}.share"] for layer in layers.LAYERS) + out[
        "unattributed_share"
    ] == pytest.approx(1.0)

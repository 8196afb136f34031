"""The tracer catches calls between layers and derives self time from spans."""

import numpy as np
import pytest

import layers
from dwf import classicality, galois, mub, quantum_net, wigner


@pytest.fixture
def recorder():
    rec = layers.Recorder()
    rec.install()
    yield rec
    rec.uninstall()


def test_self_time_subtracts_child_spans():
    spans = {
        "names": np.array(["a.f", "b.g", "b.h"]),
        "fn": np.array([0, 1, 2, 1]),
        "parent": np.array([-1, 0, 1, 0]),
        "start": np.array([0, 10, 12, 50]) * 1_000_000,
        "end": np.array([100, 30, 20, 60]) * 1_000_000,
    }
    totals = layers.self_times(spans)
    assert totals["a.f"] == (1, 100 - 20 - 10)
    assert totals["b.g"] == (2, (20 - 8) + 10)
    assert totals["b.h"] == (1, 8)


def test_calls_between_layers_are_caught(recorder):
    rho = wigner.DensityState(np.eye(2) / 2)
    classicality.min_wigner(rho, mub.standard_mub(2))
    spans = recorder.arrays()
    names = [str(spans["names"][i]) for i in spans["fn"]]
    top = names.index("classicality.min_wigner")
    # min_wigner calls wigner.probabilities through the name it imported.
    child = names.index("wigner.probabilities")
    assert spans["parent"][child] == top
    totals = layers.self_times(spans)
    assert totals["wigner.probabilities"][0] == 1


def test_methods_and_generators_are_counted(recorder):
    gf = galois.field(2)
    nets = list(quantum_net.enumerate_nets(gf))
    nets[0].point_operator_table()
    totals = layers.self_times(recorder.arrays())
    assert totals["quantum_net.enumerate_nets"][0] == 1
    assert totals["quantum_net.enumerate_nets"][1] > 0
    assert totals["quantum_net.QuantumNet.point_operator_table"][0] == 1
    assert totals["quantum_net.covariant_completion"][0] == len(nets)


def test_uninstall_restores_the_originals():
    original = wigner.wigner_function
    rec = layers.Recorder()
    rec.install()
    assert wigner.wigner_function is not original
    assert classicality.probabilities is wigner.probabilities
    rec.uninstall()
    assert wigner.wigner_function is original
    assert not hasattr(classicality.probabilities, "__wrapped__")


def test_layer_metrics_cover_every_named_metric():
    metrics = layers.layer_metrics({"wigner.probabilities": (2060, 10.0)}, ops=2, states=2)
    assert list(metrics) == layers.metric_names()
    assert metrics["wigner.probabilities.calls_per_state"] == (1030.0, "calls/state")
    assert metrics["wigner.self_ms"] == (5.0, "ms")

"""The benchmark's hold on fwlab, checked with the unit tests.

``bench/`` reaches into fwlab by module attribute: its tracer wraps about
twenty names and its workloads call public functions with fixed arguments.
These tests install and restore every patch and run one traced unit of each
workload against its references, so a rename or a changed signature fails
here rather than in a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_installs_and_restores_every_patch():
    tracer = tracing.Tracer()
    try:
        tracer.install_setup()
        tracer.install_ops()
        patched = list(tracer._saved)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert len(patched) > 20
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_unit_passes_its_checks(name):
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    try:
        tracer.install_setup()
        workload.tables()
        inst = workload.make_instance(np.random.default_rng([1, 0]))
        tracer.install_ops()
        out = workload.solve(workload.trace(inst, tracer.wrap))
    finally:
        tracer.restore()
    assert workload.check(out, workload.references(inst)) == []
    assert tracer.names

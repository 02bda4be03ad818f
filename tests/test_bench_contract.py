"""What the benchmark under ``bench/`` calls in ferrocal still exists and works.

The benchmark times ferrocal by wrapping the functions named in
``spans.TRACED`` in their modules, builds its inputs through ferrocal's
public types, and stops at ``workloads.self_test`` if an oracle disagrees
with ferrocal. A change that renames one of those functions, or breaks the
calls the self-test makes (``HysteronEnsemble`` fields, ``protocol_for``,
the ``RunConfig`` protocol fields), would otherwise pass these tests and
fail only when the benchmark runs. One reference pass of each workload, at
seed 0, goes through the workload's own ``check``, so an attribute a check
reads, or an output its oracles reject, fails here too.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import ferrocal
from ferrocal import config, simulate

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("spans"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


def test_traced_functions_resolve(bench):
    spans, _ = bench
    for module_name, func_name in spans.TRACED:
        module = getattr(ferrocal, module_name)
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


def test_positional_ensemble_construction():
    # the benchmark's plain-loop check builds a sub-ensemble positionally
    kin = config.RunConfig().kinetics
    x = np.array([1.0, 1.1])
    ensemble = simulate.HysteronEnsemble(x, kin, np.zeros(2, dtype=bool), 3)
    assert ensemble.n == 2 and ensemble.rng_seed == 3


def test_workloads_self_test(bench):
    _, workloads = bench
    workloads.self_test()


@pytest.mark.parametrize("name", ["simulate_write", "calibrate_noisy", "cli_pipeline"])
def test_workload_reference_pass_checks(bench, tmp_path, monkeypatch, name):
    _, workloads = bench
    # cli_pipeline's children import ferrocal from this checkout, with one
    # BLAS thread as the benchmark runs them
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    workload = workloads.WORKLOADS[name](0, tmp_path / "work")
    out_dir = tmp_path / "pass"
    out_dir.mkdir()
    ref = workload.run_pass(out_dir)
    assert ref.failed == 0
    workload.check(ref)

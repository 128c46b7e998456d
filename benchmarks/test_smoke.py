"""Smoke test of the benchmark itself (about a minute on 2 cores).

    python3 -m pytest benchmarks/test_smoke.py -q

Runs one operation of each workload on a fixed seed and shows that the
checks pass on the program's outputs and fail when an output is off by 1%:
a ``system.json`` whose ``psi_samples`` are scaled by 1.01, and a psi table
scaled by 1.01 under ``analyze`` (whose own cross-check reads the same table
and so does not notice).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402,F401  (pins the BLAS threads before numpy loads)
import cli_pipeline  # noqa: E402
import ops  # noqa: E402
import session  # noqa: E402

SEED = 20190624


@pytest.fixture(scope="module")
def scratch():
    """A directory under the checkout's ignored .bench_out/, removed afterwards."""
    path = os.path.join(run.OUT, f"smoke-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def built(scratch):
    """One cold `build` command of the cli-pipeline workload."""
    workdir = os.path.join(scratch, "build")
    os.makedirs(workdir)
    inp = ops.make_inputs(SEED)
    env = dict(os.environ, PYTHONPATH=run.SRC)
    name, args = cli_pipeline.commands(inp, workdir)[0]
    _, _, code = cli_pipeline.spawn([sys.executable, "-m", "subexp_wavelets.cli", *args],
                                    env)
    assert code == 0
    return workdir, inp, ops.make_reference(inp)


def test_build_output_passes(built):
    workdir, _, ref = built
    assert cli_pipeline.check_outputs("build", workdir, ref) == []


def test_scaled_psi_samples_fail(built, scratch):
    workdir, _, ref = built
    tampered = os.path.join(scratch, "tampered")
    os.makedirs(tampered)
    with open(os.path.join(workdir, "system.json")) as fh:
        doc = json.load(fh)
    doc["psi_samples"]["re"] = [1.01 * v for v in doc["psi_samples"]["re"]]
    with open(os.path.join(tampered, "system.json"), "w") as fh:
        json.dump(doc, fh)
    shutil.copy(os.path.join(workdir, "system.certificates.json"), tampered)
    problems = cli_pipeline.check_outputs("build", tampered, ref)
    assert any("psi_samples vs oracle" in p for p in problems)


@pytest.fixture(scope="module")
def loaded(built):
    from subexp_wavelets import WaveletSystem
    workdir, inp, ref = built
    with open(os.path.join(workdir, "system.json")) as fh:
        ws = WaveletSystem.from_json_dict(json.load(fh))
    return ws, ops.SessionData(inp), ref


def test_session_operation_passes(loaded):
    ws, data, ref = loaded
    _, problems = session.run_operation("pointeval", ws, data, ref)
    assert problems == []


def test_scaled_psi_table_fails_under_analyze(loaded):
    ws, data, ref = loaded
    _, problems = session.run_operation("expand", ws, data, ref)
    assert problems == []

    table = ws.interpolator

    def scaled(which, order=0):
        f = table(which, order)
        return (lambda x: 1.01 * f(x)) if which == "psi" else f

    ws.interpolator = scaled
    try:
        _, problems = session.run_operation("expand", ws, data, ref)
    finally:
        del ws.interpolator
    assert any("coefficients vs oracle" in p for p in problems)

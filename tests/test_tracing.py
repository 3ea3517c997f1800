"""The benchmark's tracer finds every function it wraps, and sees each layer's calls.

``perfbench/tracing.py`` wraps the layer functions by name, so a renamed or
deleted one would otherwise fail only a traced benchmark round.  It is
imported from its directory as it is, without writing bytecode there.
"""

import importlib
import sys
from pathlib import Path

import pytest

from cbmlife.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    no_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.dont_write_bytecode = no_bytecode
        sys.path.remove(str(PERFBENCH))


def test_every_wrapped_name_resolves(tracing):
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"cbmlife.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"cbmlife.{layer}.{name}"
    renewal = importlib.import_module("cbmlife.renewal")
    assert set(tracing.LAYER_FUNCTIONS["renewal"]) <= set(renewal.__all__)


@pytest.mark.parametrize("command", [
    ["optimize", "--objective", "transient", "--grid-T", "10:20:2"],
    ["optimize", "--objective", "asymptotic", "--grid-T", "10:20:2"],
    ["sensitivity", "--target", "gamma", "--fixed", "T=10"],
], ids=["transient", "asymptotic", "sensitivity"])
def test_traced_run_counts_renewal_calls(tracing, tmp_path, command):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        argv = [*command, "--config", str(CONFIG), "--grid-M", "12:14:2",
                "--samples", "20", "--out-dir", str(tmp_path), "--quiet"]
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics()["renewal.calls"] > 0

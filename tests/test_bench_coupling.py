"""The names the benchmark in perfbench/ looks up in thzris: its tracer wraps
module attributes by name and reads files from fixed argument positions, and
the benchmark measures untraced runs only, so a rename would go unnoticed."""

import inspect
import os

import pytest

from thzris import beamforming, channel, cli, graphene, harness, optimizer

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture()
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from thzbench import tracer
    return tracer


def test_every_tracer_target_resolves(tracer_module):
    """The tracer installs on the six modules as the benchmark's child does, and
    its uninstall puts every original back."""
    modules = {"cli": cli, "harness": harness, "channel": channel, "optimizer": optimizer,
               "beamforming": beamforming, "graphene": graphene}
    originals = {(owner, attr): getattr(modules[owner], attr)
                 for _, attr, owner, _, _ in tracer_module.TARGETS}
    tracer = tracer_module.Tracer()
    try:
        tracer.install(modules)
        for (owner, attr), orig in originals.items():
            assert getattr(modules[owner], attr).__wrapped__ is orig, f"{owner}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr), orig in originals.items():
        assert getattr(modules[owner], attr) is orig, f"{owner}.{attr}"


def test_byte_counted_targets_take_the_path_where_the_tracer_reads_it(tracer_module):
    """A ("bytes", i) target's i-th positional parameter is the file the tracer
    sizes: the third of channel.dump_realization, the second of emit_csv."""
    modules = {"channel": channel, "harness": harness}
    counted = [(layer, attr, kind[1]) for layer, attr, _, _, kind in tracer_module.TARGETS
               if kind and kind[0] == "bytes"]
    assert {(layer, attr) for layer, attr, _ in counted} == {
        ("channel", "dump_realization"), ("harness", "emit_csv")}
    for layer, attr, index in counted:
        params = list(inspect.signature(getattr(modules[layer], attr)).parameters)
        assert params[index] == "path", f"{layer}.{attr}{params}"

"""The names the benchmark in perfbench/ looks up in thzris: its tracer wraps
module attributes by name and reads files from fixed argument positions, and
the benchmark measures untraced runs only, so a rename would go unnoticed."""

import inspect
import os

import pytest

from thzris import beamforming, channel, cli, graphene, harness, optimizer

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
# the six modules the tracer installs on, keyed as the benchmark's child keys them
MODULES = {"cli": cli, "harness": harness, "channel": channel, "optimizer": optimizer,
           "beamforming": beamforming, "graphene": graphene}


@pytest.fixture()
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from thzbench import tracer
    return tracer


def test_every_tracer_target_resolves(tracer_module):
    """The tracer installs on the six modules as the benchmark's child does, and
    its uninstall puts every original back."""
    originals = {(owner, attr): getattr(MODULES[owner], attr)
                 for _, attr, owner, _, _ in tracer_module.TARGETS}
    tracer = tracer_module.Tracer()
    try:
        tracer.install(MODULES)
        for (owner, attr), orig in originals.items():
            assert getattr(MODULES[owner], attr).__wrapped__ is orig, f"{owner}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr), orig in originals.items():
        assert getattr(MODULES[owner], attr) is orig, f"{owner}.{attr}"


def test_byte_counted_targets_take_the_path_where_the_tracer_reads_it(tracer_module):
    """A ("bytes", i) target's i-th positional parameter is the file the tracer
    sizes: the third of channel.dump_realization, the second of emit_csv."""
    counted = [(layer, attr, kind[1]) for layer, attr, _, _, kind in tracer_module.TARGETS
               if kind and kind[0] == "bytes"]
    assert {(layer, attr) for layer, attr, _ in counted} == {
        ("channel", "dump_realization"), ("harness", "emit_csv")}
    for layer, attr, index in counted:
        params = list(inspect.signature(getattr(MODULES[layer], attr)).parameters)
        assert params[index] == "path", f"{layer}.{attr}{params}"


def test_traced_run_counts_every_dump(tracer_module, tmp_path):
    """A traced run with dumps counts one channel.dump_realization call per dump
    file: a caller that imported the function by name would bypass the wrapper,
    and the benchmark's channel.dump_realization metrics would read 0."""
    cfg = harness.ExperimentConfig(n_bs=8, n_ris=8, n_ms=4, m_bs=4, m_ms=4, n_streams=2,
                                   n_realizations=2, snr_grid_db=(10.0,),
                                   schemes=("agd", "no_ris"), sweep="n_ris",
                                   sweep_grid=(4.0, 8.0))
    tracer = tracer_module.Tracer()
    try:
        tracer.install(MODULES)
        harness.run_experiment(cfg, dump_dir=str(tmp_path))
    finally:
        tracer.uninstall()
    files = [tmp_path / name for name in os.listdir(tmp_path)]
    assert len(files) == 2 * 2   # points times realizations
    stats = tracer.get("channel.dump_realization")
    assert stats.calls == len(files)
    assert stats.bytes == sum(path.stat().st_size for path in files)

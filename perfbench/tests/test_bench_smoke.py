"""Tiny end-to-end run of every workload, untraced and traced."""

import pytest

import run

TINY = {"n_bs": 8, "n_ris": 8, "n_ms": 4, "m_bs": 4, "m_ms": 4, "n_streams": 2,
        "n_realizations": 2}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_smoke(workload, tmp_path):
    record = run.measure(workload, seed=5, seconds=0.01, trace=False,
                         overrides=TINY, work_dir=str(tmp_path / "work"))
    assert record["correct"], record["problems"]
    assert record["failed"] == 0
    values = record["values"]
    assert values["run_s"] > 0 and values["setup_s"] > 0 and values["peak_rss_mb"] > 0
    assert len(record["samples"]["setup_s"]) == run.SETUP_PROBES + 1   # + the op's own
    if run.WORKLOADS[workload]["replay"]:
        assert record["attempted"] == 1 + TINY["n_realizations"]
        assert values["replay_ms_p50"] > 0
    assert record["environment"]["thread_vars"].keys() == set(run.THREAD_VARS)


def test_traced_smoke(tmp_path):
    record = run.measure("desk-dump-replay", seed=1, seconds=0.01, trace=True,
                         overrides=TINY, work_dir=str(tmp_path / "work"))
    assert record["correct"], record["problems"]
    values = record["values"]
    assert values["optimizer.run_agd.calls"] == 2 * TINY["n_realizations"]
    assert values["channel.dump_realization.calls"] == TINY["n_realizations"]
    assert values["channel.load_realization.calls"] == TINY["n_realizations"]
    assert values["harness.emit_csv.bytes"] > 0
    assert "trace.overhead_s" in values
    assert record["spans"]


def test_declared_metrics_are_all_produced(tmp_path):
    declared = {m["name"] for m in run.declared_metrics(trace=True)}
    record = run.measure("paper-snr", seed=1, seconds=0.01, trace=True,
                         overrides=TINY, work_dir=str(tmp_path / "work"))
    assert declared <= set(record["values"])

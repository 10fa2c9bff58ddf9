"""One benchmark operation in a fresh process.

Usage: python -m thzbench.child '<json spec>'

The spec names a preset, config overrides and seed. Mode "setup" only imports
thzris, resolves the preset and validates it. Mode "op" then runs `thzris run
--workers 1` in-process through `cli.cli_main`, optionally replays every
channel dump, and with tracing on records per-layer metrics. The result is
written as JSON to spec["result"].
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _call(cli, argv) -> tuple:
    """(exit code, stdout, stderr, seconds) of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.cli_main(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def _dump_paths(dump_dir: str) -> list:
    return sorted(os.path.join(dump_dir, name) for name in os.listdir(dump_dir)
                  if name.endswith(".txt"))


def check_dumps(dump_dir: str, config) -> dict:
    """Each dump must reload to the matrices sample_channel draws from the
    same harness streams, bit for bit."""
    import numpy as np
    from thzris import channel, harness
    from thzris.channel import Hop

    paths = _dump_paths(dump_dir)
    bad = []
    for path in paths:
        r = int(os.path.basename(path)[len("real"):len("real") + 5])
        real = channel.load_realization(path)
        ok = real.seed == harness.stream_seed(config.master_seed, r, "h1")
        for tag, hop, matrix in (("h1", Hop.BS_RIS, real.h1), ("h2", Hop.RIS_MS, real.h2)):
            expected, _ = channel.sample_channel(
                config, hop, harness.stream_rng(config.master_seed, r, tag))
            ok = ok and np.array_equal(matrix, expected)
        if not ok:
            bad.append(os.path.basename(path))
    return {"checked": len(paths), "bad": bad}


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child (Linux KiB)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run(spec: dict) -> dict:
    start = time.perf_counter()
    from dataclasses import replace

    from thzris import beamforming, channel, cli, harness, optimizer

    overrides = {k: tuple(v) if isinstance(v, list) else v
                 for k, v in spec["overrides"].items()}   # JSON lists are config tuples
    config = replace(harness.preset(spec["preset"]), master_seed=spec["seed"], **overrides)
    config.validate()
    result = {"setup_s": time.perf_counter() - start, "n_real": config.n_realizations}
    if spec["mode"] == "setup":
        import numpy as np
        import scipy

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                              "scipy": scipy.__version__,
                              "blas": f"{blas.get('name')} {blas.get('version')}"}
        return result

    work = spec["workdir"]
    out_dir, dump_dir = os.path.join(work, "out"), os.path.join(work, "dumps")
    if spec["overrides"]:
        source = ["--config", os.path.join(work, spec["preset"] + ".cfg")]
        os.makedirs(work, exist_ok=True)
        with open(source[1], "w", encoding="utf-8") as fh:
            fh.write(harness.config_to_text(config))
    else:
        source = ["--preset", spec["preset"]]
    argv = ["run", *source, "--seed", str(spec["seed"]), "--out", out_dir,
            "--workers", "1"]
    if spec["replay"]:
        argv += ["--dump-channels", dump_dir]

    tracer = None
    if spec["trace"]:
        from thzris import graphene

        from .tracer import Tracer
        tracer = Tracer()
        tracer.install({"cli": cli, "harness": harness, "channel": channel,
                        "optimizer": optimizer, "beamforming": beamforming,
                        "graphene": graphene})

    from . import checks

    code, _, err, result["run_s"] = _call(cli, argv)
    result["exit"] = code
    result["stderr"] = err[-2000:]
    result["csv"] = os.path.join(out_dir, spec["preset"] + ".csv")
    replays = []
    if tracer is not None:
        tracer.detail = False    # optimizer details describe the run command only
    if spec["replay"] and code == 0:
        for path in _dump_paths(dump_dir):
            r_code, r_out, _, seconds = _call(cli, ["replay", "--channel-dump", path])
            replays.append({"ms": seconds * 1e3, "ok": checks.replay_ok(r_code, r_out)})
    result["replays"] = replays
    result["peak_rss_mb"] = _peak_rss_mb()

    if tracer is not None:
        from .tracer import layer_metrics
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, [r["ms"] for r in replays])
        result["spans"] = tracer.spans
    if spec["replay"] and code == 0:
        result["dump_check"] = check_dumps(dump_dir, config)
    return result


def main(argv) -> int:
    spec = json.loads(argv[0])
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

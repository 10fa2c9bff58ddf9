"""Command-line interface: subcommands, exit codes, determinism."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import thzris
from thzris.cli import cli_main
from thzris.harness import (ExperimentConfig, config_to_text, load_config, preset,
                            preset_names, replay_realization, run_experiment)
from thzris.optimizer import OptimizerSettings

GOLDEN_PRESETS = os.path.join(os.path.dirname(__file__), "golden", "presets")

TINY_CFG = """
n_bs = 8
n_ris = 8
n_ms = 4
m_bs = 4
m_ms = 4
n_streams = 2
n_realizations = 2
snr_grid_db = 10
schemes = agd, random
master_seed = 3
max_iterations = 10
"""


@pytest.fixture()
def tiny_cfg_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


class TestRun:
    def test_run_writes_csv(self, tiny_cfg_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert cli_main(["run", "--config", tiny_cfg_path, "--out", out]) == 0
        csv_path = os.path.join(out, "tiny.csv")
        assert os.path.exists(csv_path)
        assert "wrote" in capsys.readouterr().out

    def test_repeat_runs_identical(self, tiny_cfg_path, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli_main(["run", "--config", tiny_cfg_path, "--seed", "42",
                         "--out", out_a]) == 0
        assert cli_main(["run", "--config", tiny_cfg_path, "--seed", "42",
                         "--out", out_b, "--workers", "2"]) == 0
        bytes_a = open(os.path.join(out_a, "tiny.csv"), "rb").read()
        bytes_b = open(os.path.join(out_b, "tiny.csv"), "rb").read()
        assert bytes_a == bytes_b

    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        cases = [("n_bs = 4\nm_bs = 6", None, "n_bs"),
                 ("kappa_per_m = nan", 1, "kappa_per_m"),
                 ("bs_ris_m = inf", 1, "bs_ris_m"),
                 ("snr_grid_db = nan", 1, "snr_grid_db"),
                 ("max_iterations = 0", 1, "max_iterations"),
                 ("fixed_step = -1", 1, "fixed_step"),
                 ("nlos_excess_min_m = -50", 1, "nlos_excess_min_m"),
                 ("nlos_excess_min_m = 20", None, "nlos_excess_min_m"),
                 ("sweep = bits\nsweep_grid = 2.5", 2, "sweep_grid"),
                 ("sweep = phi_max_deg\nsweep_grid = 120, 120", 2, "sweep_grid"),
                 ("sweep = vs_phimax", 1, "sweep"),
                 ("n_bs = 8\nrecord_wall_time = false", 2, "record_wall_time"),
                 ("kappa_per_m = 100", None, "kappa_per_m"),
                 ("direct_blockage_db = 1e4", None, "direct_blockage_db"),
                 ("carrier_freq_hz = 1e-300\nbs_ris_m = 1e-30", None, "bs_ris_m"),
                 ("n_realizations = 1\nbits = 40\nschemes = agd", 2, "bits"),
                 ("carrier_freq_hz = 1e-150\nbs_ris_m = 1e6\nris_ms_m = 1e6\n"
                  "kappa_per_m = 0\nbs_ms_m = 1e-180\nnlos_excess_min_m = 0\n"
                  "nlos_excess_max_m = 0", None, "reflected-path gain"),
                 ("kappa_per_m = 0\nbs_ms_m = 1\nschemes = no_ris\n"
                  "bs_ris_m = 1e150\nris_ms_m = 1e150", None, "rate terms are bounded"),
                 ("kappa_per_m = 0\nbs_ms_m = 1\nschemes = no_ris\n"
                  "bs_ris_m = 1e147\nris_ms_m = 1e147", None, "rate terms are bounded"),
                 ("snr_grid_db = 4000", 1, "snr_grid_db"),
                 ("n_bs = 8\nsnr_grid_db = 0, 3050", 2, "snr_grid_db"),
                 ("schemes = random, random", 1, "schemes"),
                 ("snr_grid_db = 10, 10", 1, "snr_grid_db"),
                 ("schemes = agd,,random,", 1, "schemes"),
                 ("snr_grid_db = 0,,10,", 1, "snr_grid_db"),
                 (b"n_bs = 8\n\xff\xfe\n", None, "not UTF-8 text")]
        for text, line, key in cases:
            bad.write_bytes(text if isinstance(text, bytes) else (text + "\n").encode())
            assert cli_main(["run", "--config", str(bad)]) == 2, text
            err = capsys.readouterr().err
            where = f"{bad}:{line}" if line else f"{bad}"
            assert err.startswith(f"config error: {where}: ") and key in err, err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, workers, tiny_cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["run", "--config", tiny_cfg_path, "--out", str(out),
                         "--workers", workers]) == 2
        assert capsys.readouterr().err == "config error: --workers must be >= 1\n"
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_unknown_flag_exits_2(self, tiny_cfg_path, tmp_path, capsys):
        """A config file or preset chooses the sweep; run has no --sweep flag."""
        for flags in (["--frobnicate"], ["--sweep", "bits"]):
            out = tmp_path / "out"
            code = cli_main(["run", "--config", tiny_cfg_path, "--out", str(out), *flags])
            capsys.readouterr()
            assert code == 2, flags
            assert not out.exists()

    def test_timing_flag_fills_wall_column(self, tiny_cfg_path, tmp_path):
        """--timing fills mean_wall_ms; without it the column is 0 and the CSV is
        byte-identical at any worker count."""
        def run(name, *flags):
            out = str(tmp_path / name)
            assert cli_main(["run", "--config", tiny_cfg_path, "--out", out, *flags]) == 0
            with open(os.path.join(out, "tiny.csv"), "rb") as fh:
                return fh.read()

        walls = [float(ln.split(b",")[-1]) for ln in run("timed", "--timing").splitlines()[1:]]
        assert walls and all(w > 0.0 for w in walls)
        serial = run("w1", "--workers", "1")
        assert serial == run("w2", "--workers", "2")
        assert all(ln.endswith(b",0") for ln in serial.splitlines()[1:])

    def test_loads_no_scipy(self, tiny_cfg_path, tmp_path):
        """Neither `import thzris` nor a run loads a scipy module. It runs in a
        fresh interpreter, since other tests may import scipy into this one."""
        code = (
            "import sys\n"
            "scipy = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "from thzris.cli import cli_main\n"
            "print(scipy())\n"
            f"assert cli_main(['run', '--config', {tiny_cfg_path!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "print(scipy())\n")
        src = os.path.dirname(os.path.dirname(thzris.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.splitlines()[0] == "[]" and out.splitlines()[-1] == "[]", out

    def test_serial_run_loads_no_process_pool(self, tiny_cfg_path, tmp_path):
        """A --workers 1 run imports neither multiprocessing nor the process
        pool. It runs in a fresh interpreter, since other tests start pools."""
        code = (
            "import sys\n"
            "from thzris.cli import cli_main\n"
            f"assert cli_main(['run', '--config', {tiny_cfg_path!r}, '--out', {str(tmp_path)!r}, "
            "'--workers', '1']) == 0\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])\n")
        src = os.path.dirname(os.path.dirname(thzris.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.splitlines()[-1] == "[]", out


class TestPresets:
    def test_list_names_all(self, capsys):
        assert cli_main(["presets", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig5-desk" in out and "fig7-paper" in out
        assert len(out) == 8

    @pytest.mark.parametrize("name", preset_names())
    def test_show_round_trips(self, name, capsys, tmp_path):
        assert cli_main(["presets", "show", name]) == 0
        out = capsys.readouterr().out
        assert out == config_to_text(preset(name))
        with open(os.path.join(GOLDEN_PRESETS, f"{name}.cfg"), "rb") as fh:
            assert out.encode() == fh.read()
        path = tmp_path / "shown.cfg"
        path.write_text(out)
        assert load_config(path) == preset(name)

    def test_list_takes_no_name(self, capsys):
        assert cli_main(["presets", "list", "fig5-desk"]) == 2
        assert capsys.readouterr().err == \
            "config error: 'presets list' takes no preset name, got 'fig5-desk'\n"

    def test_show_unknown_exits_2(self, capsys):
        assert cli_main(["presets", "show", "fig12-desk"]) == 2
        capsys.readouterr()


class TestConfigReference:
    def test_prints_defaults(self, capsys):
        assert cli_main(["config-reference"]) == 0
        out = capsys.readouterr().out
        assert "n_bs" in out and "master_seed" in out and "fixed_step" in out


class TestReplay:
    def test_replay_dumped_channel(self, tiny_cfg_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        dumps = str(tmp_path / "dumps")
        assert cli_main(["run", "--config", tiny_cfg_path, "--out", out,
                         "--dump-channels", dumps]) == 0
        dump_files = sorted(os.listdir(dumps))
        assert len(dump_files) == 2
        code = cli_main(["replay", "--channel-dump",
                         os.path.join(dumps, dump_files[0])])
        out_text = capsys.readouterr().out
        assert code == 0
        assert "agd" in out_text and "random" in out_text

    def test_non_finite_snr_flag_exits_2(self, capsys):
        # 4000 dB overflows 10 ** (snr / 10); the flag is bound to +-MAX_SNR_DB
        for raw in ("nan", "inf", "-inf", "4000", "-4000"):
            code = cli_main(["replay", "--channel-dump", "/no/such/file.txt",
                             f"--snr-db={raw}"])
            assert code == 2
            assert capsys.readouterr().err.startswith("config error: --snr-db must be finite")

    def test_replay_reproduces_sweep_rows(self, tmp_path, capsys):
        """Replaying every dump of a sweep gives back its agd and random rows."""
        cfg = ExperimentConfig(n_bs=8, n_ris=8, n_ms=4, m_bs=4, m_ms=4, n_streams=3,
                               n_realizations=3, snr_grid_db=(-5.0, 10.0),
                               schemes=("agd", "cgd", "random"), master_seed=5,
                               sweep="phi_max_deg", sweep_grid=(120.0, 306.82),
                               optimizer=OptimizerSettings(max_iterations=10))
        rows = run_experiment(cfg, dump_dir=str(tmp_path))
        checked = 0
        for row in rows:
            if row.scheme == "cgd":
                continue
            names = [f"real{r:05d}_phi_max_deg{row.sweep_value!r}.txt" for r in range(3)]
            rates = [replay_realization(tmp_path / name, row.snr_db)[2][row.scheme]
                     for name in names]
            assert np.mean(rates) == row.mean_rate and np.std(rates) == row.std_rate, row
            checked += 1
        assert checked == 2 * 2 * 2

        dump = tmp_path / "real00001_phi_max_deg306.82.txt"
        assert cli_main(["replay", "--channel-dump", str(dump), "--snr-db", "-5"]) == 0
        printed = re.search(r"^agd\s+rate at -5 dB: (\S+) bps/Hz \(8 elements, 3 streams\)$",
                            capsys.readouterr().out, re.MULTILINE)
        assert printed.group(1) == f"{replay_realization(dump, -5.0)[2]['agd']:.3f}"

    @pytest.mark.parametrize("case", ["truncated", "path_count", "version", "nan_header",
                                      "inf_path", "token_count", "invalid_config", "config_value",
                                      "v1", "v2", "v3", "v3_path_row", "zero_hop",
                                      "overflow_hop", "overflow_referenced",
                                      "overflow_form_trace", "sweep_config", "removed_key",
                                      "empty_item", "not_utf8"])
    def test_malformed_dump_exits_2(self, case, tiny_cfg_path, tmp_path, capsys):
        dumps = tmp_path / "dumps"
        assert cli_main(["run", "--config", tiny_cfg_path, "--out", str(tmp_path),
                         "--dump-channels", str(dumps)]) == 0
        lines = (dumps / "real00000.txt").read_text().splitlines()
        at = {ln.split()[0]: n for n, ln in enumerate(lines)}   # key -> index
        bad, line, tail = list(lines), None, b""
        if case == "truncated":
            bad, line = lines[:5], 5
        elif case == "path_count":    # paths_h2's header becomes the extra h1 row
            bad[at["paths_h1"]] = "paths_h1 4"
            line = at["paths_h2"] + 1
        elif case == "version":
            bad[0], line = "# thzris channel dump v7", 1
        elif case == "nan_header":
            bad, line = lines[:1] + ["realization nan"], 2
        elif case == "inf_path":
            row, tok = at["paths_h2"] + 1, lines[at["paths_h2"] + 1].split()
            bad[row] = " ".join(tok[:3] + ["inf"] + tok[4:])
            line = row + 1
        elif case == "token_count":
            bad[at["paths_h2"]] += " 7"
            line = at["paths_h2"] + 1
        elif case == "invalid_config":  # a config value that fails validation
            line = bad.index("config n_ris = 8") + 1
            bad[line - 1] = "config n_ris = 0"
        elif case == "config_value":  # a config value that does not parse
            line = bad.index("config n_ris = 8") + 1
            bad[line - 1] = "config n_ris = eight"
        elif case in ("v1", "v2", "v3"):   # earlier formats: the version line is refused
            bad[0], line = f"# thzris channel dump {case}", 1
        elif case == "v3_path_row":   # a v3 row's trailing delay under the v4 version line
            row = at["paths_h1"] + 1
            bad[row] += " 8.339102379953801e-11"
            line = row + 1
        elif case == "zero_hop":      # h1 without its path rows rebuilds to zero
            bad = lines[:at["paths_h1"]] + ["paths_h1 0"] + lines[at["paths_h2"]:]
            line = at["paths_h1"] + 1
        elif case == "overflow_hop":  # finite gains whose rebuilt h1 overflows
            row, tok = at["paths_h1"] + 1, lines[at["paths_h1"] + 1].split()
            bad[row] = " ".join(tok[:5] + ["1e308", "1e308"])
            line = at["paths_h1"] + 1
        elif case == "overflow_referenced":   # a finite h1 that overflows once referenced
            row, tok = at["paths_h1"] + 1, lines[at["paths_h1"] + 1].split()
            bad[row] = " ".join(tok[:5] + ["1e150", "1e150"])
            line = at["paths_h1"] + 1
        elif case == "overflow_form_trace":   # finite referenced hops whose form's trace overflows
            for key in ("paths_h1", "paths_h2"):   # each hop's LoS row comes first
                row, tok = at[key] + 1, lines[at[key] + 1].split()
                bad[row] = " ".join(tok[:5] + ["1e145", "1e145"])
            line = at["paths_h1"] + 1
        elif case == "sweep_config":  # a dump holds one point's config, not a sweep
            line = bad.index("config sweep = none") + 1
            bad[line - 1] = "config sweep = phi_max_deg"
            bad[bad.index("config sweep_grid = ")] = "config sweep_grid = 60, 120"
        elif case == "empty_item":
            line = bad.index("config schemes = agd,random") + 1
            bad[line - 1] = "config schemes = agd,,random,"
        elif case == "not_utf8":      # names the file only
            tail = b"\xff\xfe\n"
        else:                         # removed_key: a knob of earlier versions
            line = bad.index("config max_iterations = 10") + 1
            bad.insert(line - 1, "config init_phases = zeros")
        path = tmp_path / "bad.txt"
        path.write_bytes(("\n".join(bad) + "\n").encode() + tail)
        capsys.readouterr()
        assert cli_main(["replay", "--channel-dump", str(path)]) == 2
        where = f"{path}:{line}" if line else f"{path}"
        assert capsys.readouterr().err.startswith(f"config error: {where}: ")

    def test_replay_missing_file_exits_1(self, capsys):
        assert cli_main(["replay", "--channel-dump", "/no/such/file.txt"]) == 1
        capsys.readouterr()

import csv
import json

import numpy as np
import pytest

from helmlayer.cli import SCHEMA_VERSION, build_parser, main
from helmlayer.medium import acoustic
from helmlayer.quadrature import ContourSpec, green

GREEN_CFG = """
[medium]
depths = 0.0
wavenumbers = 1.0, 1.5
rows = acoustic

[job]
kind = green-eval
targets = 0.3,0.7; -0.4,-0.5
sources = 0.0,0.4
strengths = 1.0

[quadrature]
rtol = 1e-9
"""


def run(tmp_path, cfg_text, out_name, *extra):
    cfg = tmp_path / "job.ini"
    cfg.write_text(cfg_text)
    out = tmp_path / out_name
    code = main(["--config", str(cfg), "--out", str(out), *extra])
    return code, out


class TestGreenEval:
    def test_values_match_library(self, tmp_path):
        code, out = run(tmp_path, GREEN_CFG, "g")
        assert code == 0
        with open(out / "green_eval.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        medium = acoustic((0.0,), (1.0, 1.5))
        for row in rows:
            want = green(
                medium,
                (float(row["x"]), float(row["y"])),
                (0.0, 0.4),
                ContourSpec(rtol=1e-9),
            )
            assert complex(float(row["re"]), float(row["im"])) == pytest.approx(
                want, rel=1e-7
            )

    def test_schema_stamp(self, tmp_path):
        code, out = run(tmp_path, GREEN_CFG, "g")
        payload = json.loads((out / "result.json").read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["status"] == "ok"
        assert payload["kind"] == "green-eval"

    def test_byte_identical_reruns(self, tmp_path):
        _, out1 = run(tmp_path, GREEN_CFG, "g1", "--seed", "11")
        _, out2 = run(tmp_path, GREEN_CFG, "g2", "--seed", "11")
        assert (out1 / "green_eval.csv").read_bytes() == (
            out2 / "green_eval.csv"
        ).read_bytes()
        assert (out1 / "result.json").read_bytes() == (
            out2 / "result.json"
        ).read_bytes()


class TestPoleScan:
    def test_homogeneous_empty_table(self, tmp_path):
        cfg = """
[medium]
depths = 0.0
wavenumbers = 1.0, 1.0
rows = acoustic

[job]
kind = pole-scan
"""
        code, out = run(tmp_path, cfg, "p")
        assert code == 0
        lines = (out / "poles.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only
        payload = json.loads((out / "result.json").read_text())
        assert payload["metrics"]["n_poles"] == 0

    def test_guided_mode_found(self, tmp_path):
        cfg = """
[medium]
depths = 0.0, -1.0
wavenumbers = 1.0, 2.0, 1.0
rows = acoustic

[job]
kind = pole-scan
scan_max = 2.4
"""
        code, out = run(tmp_path, cfg, "p")
        assert code == 0
        with open(out / "poles.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert 1.0 < float(rows[0]["location"]) < 2.0


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[medium\ndepths = 0\n")
        code = main(["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_missing_file(self, tmp_path):
        code = main(["--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
        assert code == 2

    def test_validation_error(self, tmp_path):
        cfg = """
[medium]
depths = 0.0
wavenumbers = 1.0
rows = acoustic

[job]
kind = green-eval
"""
        code, _ = run(tmp_path, cfg, "v")
        assert code == 3

    def test_unknown_kind(self, tmp_path):
        cfg = """
[medium]
depths = 0.0
wavenumbers = 1.0, 1.0
rows = acoustic

[job]
kind = frobnicate
"""
        code, _ = run(tmp_path, cfg, "v")
        assert code == 3

    def test_workers_flag_rejected(self, capsys):
        # the flag set nothing; argparse now refuses it with its usage code
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--config", "job.ini", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestCdhCheck:
    def test_passes_on_two_layer(self, tmp_path):
        cfg = """
[medium]
depths = 0.0
wavenumbers = 1.0, 1.5
rows = acoustic

[job]
kind = cdh-check
samples = 150
"""
        code, out = run(tmp_path, cfg, "c", "--seed", "4")
        assert code == 0
        with open(out / "cdh_check.csv", newline="") as fh:
            rows = {r["check"]: r for r in csv.DictReader(fh)}
        assert float(rows["roundtrip_max"]["value"]) < 1e-12
        assert rows["tail_vs_real_axis"]["pass"] == "True"


class TestFmmBench:
    def test_small_bench_with_check(self, tmp_path):
        cfg = """
[medium]
depths = 0.0
wavenumbers = 1.0, 1.5
rows = acoustic

[job]
kind = fmm-bench
sizes = 80
check_n = 80
tolerance = 1e-5
"""
        code, out = run(tmp_path, cfg, "f", "--seed", "2")
        assert code == 0
        with open(out / "fmm_bench.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["rel_l2_error"]) < 1e-5
        assert (out / "timings.json").exists()

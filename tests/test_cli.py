"""Command-line interface: modes, file formats, exit codes."""

import json

import numpy as np

from weylinv.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    main,
    read_weyl_csv,
)


def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


SMALL_CONTOUR = {"r0": 2.0, "R": 50.0, "n_cut": 32, "n_circle": 32}

SCALAR_BOX = {
    "problem": {
        "dim": 1,
        "boundary": {"form": "projector", "A": [[[1.0, 0.0]]],
                     "h": [[[0.0, 0.0]]]},
        "potential": {"kind": "box", "coupling": [0.3, 0.0], "x_cut": 0.7,
                      "x_max": 1.5, "nodes": 151},
    },
    "contour": SMALL_CONTOUR,
    "x_grid": {"x_max": 1.5, "nodes": 151},
    "lambda_probes": [-4.0, -9.0],
    "tail": {"ts": [50.0, 100.0, 200.0, 400.0]},
}


class TestValidateBC:
    def test_projector_form(self, tmp_path):
        cfg = {"problem": {"dim": 2,
                           "boundary": {"form": "delta", "coupling": 0.5}}}
        rc = main(["validate-bc", "--config",
                   write_cfg(tmp_path / "c.json", cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        out = json.loads((tmp_path / "out" / "boundary.json").read_text())
        assert np.allclose(out["A"], [[[0.5, 0.0], [0.5, 0.0]],
                                      [[0.5, 0.0], [0.5, 0.0]]])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "diagnostics" in report

    def test_random_unitary_seeded_deterministic(self, tmp_path):
        cfg = {"problem": {"dim": 2,
                           "boundary": {"form": "random-unitary"}}}
        path = write_cfg(tmp_path / "c.json", cfg)
        outs = []
        for d in ("a", "b"):
            rc = main(["validate-bc", "--config", path,
                       "--out", str(tmp_path / d), "--seed", "11"])
            assert rc == 0
            outs.append((tmp_path / d / "boundary.json").read_text())
        assert outs[0] == outs[1]


class TestForward:
    def test_emits_csvs_and_manifest(self, tmp_path):
        rc = main(["forward", "--config",
                   write_cfg(tmp_path / "c.json", SCALAR_BOX),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        weyl_csv = tmp_path / "out" / "weyl.csv"
        assert weyl_csv.exists()
        header = weyl_csv.read_text().splitlines()[0]
        assert header.startswith("segment,re_rho,im_rho,weight_re,weight_im")
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["diagnostics"]["n_contour_nodes"] == 32 + 2 * 32
        assert "weyl.csv" in report["manifest"]

    def test_forward_byte_deterministic(self, tmp_path):
        path = write_cfg(tmp_path / "c.json", SCALAR_BOX)
        blobs = []
        for d in ("a", "b"):
            rc = main(["forward", "--config", path,
                       "--out", str(tmp_path / d)])
            assert rc == 0
            blobs.append((tmp_path / d / "weyl.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_csv_reader_round_trips(self, tmp_path):
        path = write_cfg(tmp_path / "c.json", SCALAR_BOX)
        assert main(["forward", "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
        weyl = read_weyl_csv(str(tmp_path / "out" / "weyl.csv"),
                             str(tmp_path / "out" / "tail.csv"),
                             SCALAR_BOX["contour"])
        assert weyl.M_samples.shape == (96, 1, 1)
        assert len(weyl.tail_samples) == 4


class TestZeros:
    def test_zero_potential_finds_nothing(self, tmp_path):
        cfg = {
            "problem": {
                "dim": 1,
                "boundary": {"form": "neumann"},
                "potential": {"kind": "zero", "x_max": 1.0, "nodes": 41},
            },
            "zeros": {"radius": 3.0, "grid_density": 12},
        }
        rc = main(["zeros", "--config", write_cfg(tmp_path / "c.json", cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = (tmp_path / "out" / "zeros.csv").read_text().splitlines()
        assert lines[0] == "re_lambda,im_lambda"
        assert len(lines) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["diagnostics"]["n_zeros"] == 0
        assert report["diagnostics"]["suggested_r0"] > 0.0


class TestRoundtrip:
    def test_scalar_box_small(self, tmp_path):
        rc = main(["roundtrip", "--config",
                   write_cfg(tmp_path / "c.json", SCALAR_BOX),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        # small contour: loose bound, the acceptance suite runs the
        # production sizes
        assert report["error_norms"]["q_l1_relative"] < 0.5
        assert report["error_norms"]["A_error"] == 0.0
        assert 0.0 < report["diagnostics"]["min_rcond"] <= 1.0
        assert 0.0 <= report["diagnostics"]["min_rcond_x"]
        assert (tmp_path / "out" / "q_recovered.csv").exists()


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path):
        rc = main(["forward", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path)])
        assert rc != 0

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["forward", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_unknown_boundary_form(self, tmp_path):
        cfg = {"problem": {"dim": 1, "boundary": {"form": "moebius"}}}
        rc = main(["validate-bc", "--config",
                   write_cfg(tmp_path / "c.json", cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    def test_bad_contour_radii(self, tmp_path):
        cfg = dict(SCALAR_BOX)
        cfg["contour"] = {"r0": 10.0, "R": 2.0}
        rc = main(["forward", "--config",
                   write_cfg(tmp_path / "c.json", cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    def test_nan_in_weyl_csv_is_numerical_failure(self, tmp_path):
        out = tmp_path / "fwd"
        assert main(["forward", "--config",
                     write_cfg(tmp_path / "c.json", SCALAR_BOX),
                     "--out", str(out)]) == 0
        weyl_csv = out / "weyl.csv"
        lines = weyl_csv.read_text().splitlines()
        row = lines[4].split(",")
        row[5] = "nan"                       # M00_re of one contour node
        lines[4] = ",".join(row)
        weyl_csv.write_text("\n".join(lines) + "\n")
        cfg = dict(SCALAR_BOX, input={"weyl": str(weyl_csv),
                                      "tail": str(out / "tail.csv")})
        rc = main(["invert", "--config", write_cfg(tmp_path / "i.json", cfg),
                   "--out", str(tmp_path / "inv")])
        assert rc == EXIT_NUMERICAL

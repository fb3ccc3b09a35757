"""Command-line interface: modes, file formats, exit codes."""

import copy
import csv
import json
import re
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylinv.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    _CONFIG_ERRORS,
    _NUMERICAL_ERRORS,
    _Report,
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

# The same job on 9-node grids, valid for every mode; zeros scans a small disk.
TINY = copy.deepcopy(SCALAR_BOX)
TINY["problem"]["potential"]["nodes"] = 9
TINY["x_grid"]["nodes"] = 9
TINY["zeros"] = {"radius": 3.0, "grid_density": 6}


class TestValidateBC:
    @pytest.mark.parametrize("boundary, A", [
        ({"form": "delta", "coupling": 0.5}, [[0.5, 0.5], [0.5, 0.5]]),
        ({"form": "dirichlet"}, [[0.0, 0.0], [0.0, 0.0]])],
        ids=["delta", "dirichlet"])
    def test_projector_form(self, tmp_path, boundary, A):
        cfg = {"problem": {"dim": 2, "boundary": boundary}}
        rc = main(["validate-bc", "--config",
                   write_cfg(tmp_path / "c.json", cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        out = json.loads((tmp_path / "out" / "boundary.json").read_text())
        assert np.allclose(out["A"], np.stack([A, np.zeros((2, 2))], axis=-1))
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

    # the box again, or tabulated at its own nodes: the same bytes
    @pytest.mark.parametrize("again", [
        SCALAR_BOX["problem"]["potential"],
        {"kind": "table", "x": np.linspace(0.0, 1.5, 151).tolist(),
         "values": [0.3 if x <= 0.7 else 0.0
                    for x in np.linspace(0.0, 1.5, 151)]}],
        ids=["box", "table"])
    def test_forward_byte_deterministic(self, tmp_path, again):
        blobs = []
        for d, pot in (("a", SCALAR_BOX["problem"]["potential"]), ("b", again)):
            cfg = _with(SCALAR_BOX, ("problem", "potential"), pot)
            rc = main(["forward", "--config",
                       write_cfg(tmp_path / f"{d}.json", cfg),
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
    # the far probe is at 0.95 sqrt(R), but on 151 slices |lambda|^(3/4) dx
    # = 0.17, and Q and h are those of the near probes.  The small contour
    # bounds the accuracy; the acceptance suite runs the production sizes
    @pytest.mark.parametrize("probes", [[-4.0, -9.0], [-4.0, -45.125]])
    def test_scalar_box_small(self, tmp_path, probes):
        cfg = dict(SCALAR_BOX, lambda_probes=probes)
        rc = main(["roundtrip", "--config",
                   write_cfg(tmp_path / "c.json", cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["error_norms"]["q_l1_relative"] == pytest.approx(
            0.1172, abs=2e-4)
        assert report["error_norms"]["h_error"] == pytest.approx(
            0.00182, abs=1e-5)
        assert report["error_norms"]["A_error"] == 0.0
        diag = report["diagnostics"]
        assert 0.0 < diag["min_rcond"] <= 1.0
        assert 0.0 <= diag["min_rcond_x"]
        # A = 1: phi(0) = 1, and a scalar phi is rejected only where it
        # vanishes, so no node is filled in
        assert diag["phi_filled_nodes"] == 0
        assert 0.0 < diag["q_pass_change"] < 1.0
        assert 0.0 < diag["tail_fit_residual"] < 1.0
        # null where no OpenBLAS can be read
        assert diag["slice_workers"] >= 1
        assert diag["blas_threads"] is None or diag["blas_threads"] >= 1
        # generate_weyl_data's samples of a real problem mirror bit for bit
        assert diag["real_system"] is True
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


def _forward_csvs(tmp_path):
    out = tmp_path / "fwd"
    assert main(["forward", "--config", write_cfg(tmp_path / "f.json", SCALAR_BOX),
                 "--out", str(out)]) == 0
    return out / "weyl.csv", out / "tail.csv"


def _edit_csv(path, edit):
    """Rewrite a CSV file through edit, a function on its list of lines."""
    path.write_text("".join(ln + "\n" for ln in edit(path.read_text().splitlines())))


def _set_cell(line, col, value):
    def edit(lines):
        row = lines[line].split(",")
        row[col] = value
        return lines[:line] + [",".join(row)] + lines[line + 1:]
    return edit


MALFORMED_CSVS = {
    "non-numeric cell": _set_cell(4, 5, "abc"),
    "unknown segment": _set_cell(4, 0, "sideways"),
    "empty file": lambda lines: [],
    "truncated row": lambda lines: (lines[:4] + [",".join(lines[4].split(",")[:4])]
                                    + lines[5:]),
    "fewer than 64 rows": lambda lines: lines[:40],
    # n = 2 against the tail's n = 1
    "dimension of the tail": lambda lines: [ln + ",0.0" * 6 for ln in lines],
}


def _validate_bc(boundary, dim=2):
    return ("validate-bc", {"problem": {"dim": dim, "boundary": boundary}})


def _with(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


MALFORMED_CONFIGS = {
    "validate-bc non-projector A": _validate_bc(
        {"form": "projector", "A": [[0.5, 0], [0, 0]], "h": [[0, 0], [0, 0]]}),
    "validate-bc delta without coupling": _validate_bc({"form": "delta"}),
    "validate-bc non-unitary U": _validate_bc(
        {"form": "unitary", "U": [[2, 0], [0, 1]]}),
    "validate-bc dim 'two'": _validate_bc({"form": "neumann"}, dim="two"),
    "zeros radius -1": ("zeros", _with(TINY, ("zeros", "radius"), -1)),
    "zeros radius 'x'": ("zeros", _with(TINY, ("zeros", "radius"), "x")),
    "zeros grid_density 0": ("zeros", _with(TINY, ("zeros", "grid_density"), 0)),
    "forward tail.ts [50, 'a']": ("forward", _with(TINY, ("tail", "ts"), [50, "a"])),
    "forward boundary not an object": (
        "forward", _with(TINY, ("problem", "boundary"), [1, 2])),
}


class TestExitCodes:
    @pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_is_config_error(self, tmp_path, name):
        mode, cfg = MALFORMED_CONFIGS[name]
        rc = main([mode, "--config", write_cfg(tmp_path / "c.json", cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("old, new, mode", [
        ('"nodes": 9', '"nodes": 1e400', "zeros"),
        ('"x_max": 1.5', '"x_max": 1' + "0" * 400, "zeros"),
        ('"radius": 3.0', '"radius": NaN', "zeros"),
        ('"R": 50.0', '"R": 1e400', "forward"),
        ('"radius": 3.0', '"radius": 1e400', "zeros"),
        ('"coupling": [0.3, 0.0]', '"coupling": [1e400, 0.0]', "zeros"),
        ('"kind": "box", "coupling": [0.3, 0.0], "x_cut": 0.7',
         '"kind": "gaussian", "coupling": [0.3, 0.0], "center": 0.7, '
         '"width": "nan"', "zeros"),
        ('"form": "projector", "A": [[[1.0, 0.0]]], "h": [[[0.0, 0.0]]]',
         '"form": "delta", "coupling": 1e400', "validate-bc"),
    ], ids=["nodes 1e400", "x_max 10^400", "radius NaN", "contour R 1e400",
            "radius 1e400", "box coupling 1e400", "gaussian width 'nan'",
            "delta coupling 1e400"])
    def test_number_out_of_range_is_config_error(self, tmp_path, old, new,
                                                 mode):
        text = json.dumps(TINY)
        assert old in text
        (tmp_path / "c.json").write_text(text.replace(old, new))
        rc = main([mode, "--config", str(tmp_path / "c.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("name", sorted(MALFORMED_CSVS))
    def test_malformed_weyl_csv_is_config_error(self, tmp_path, name):
        weyl_csv, tail_csv = _forward_csvs(tmp_path)
        _edit_csv(weyl_csv, MALFORMED_CSVS[name])
        cfg = dict(SCALAR_BOX, input={"weyl": str(weyl_csv), "tail": str(tail_csv)})
        rc = main(["invert", "--config", write_cfg(tmp_path / "i.json", cfg),
                   "--out", str(tmp_path / "inv")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("value", [6.9, True, "9"], ids=["6.9", "true", "'9'"])
    @pytest.mark.parametrize("mode, path", [
        ("zeros", ("zeros", "grid_density")),
        ("roundtrip", ("x_grid", "nodes")),
        ("zeros", ("problem", "potential", "nodes")),
        ("forward", ("contour", "n_cut")),
        ("forward", ("contour", "n_circle")),
        ("forward", ("problem", "dim")),
        ("validate-bc", ("problem", "dim")),
    ], ids=lambda v: v if isinstance(v, str) else ".".join(v))
    def test_count_that_is_not_an_integer_is_config_error(self, tmp_path, mode,
                                                          path, value):
        # int() would have run grid_density 6.9 as 6, and dim "9" as 9
        cfg = _with(TINY, path, value)
        rc = main([mode, "--config", write_cfg(tmp_path / "c.json", cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    def test_integral_float_count_is_accepted(self, tmp_path):
        cfg = _with(TINY, ("zeros", "grid_density"), 6.0)
        rc = main(["zeros", "--config", write_cfg(tmp_path / "c.json", cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_negative_im_rho_in_weyl_csv_is_numerical_failure(self, tmp_path):
        weyl_csv, tail_csv = _forward_csvs(tmp_path)
        _edit_csv(weyl_csv, _set_cell(4, 2, "-1.0"))
        cfg = dict(SCALAR_BOX, input={"weyl": str(weyl_csv), "tail": str(tail_csv)})
        rc = main(["invert", "--config", write_cfg(tmp_path / "i.json", cfg),
                   "--out", str(tmp_path / "inv")])
        assert rc == EXIT_NUMERICAL

    @pytest.mark.parametrize("probes, code", [
        ([0.0, -4.0], EXIT_NUMERICAL), ([-4.0], EXIT_CONFIG),
        ([float("nan"), -4.0], EXIT_CONFIG), ([-4.0, float("inf")], EXIT_CONFIG),
        ([-4.0, -1e4], EXIT_CONFIG),
        # |rho| = 0.95 sqrt(R), resolved by the 151-slice grid
        ([-4.0, -45.125], 0)])
    def test_lambda_probes(self, tmp_path, probes, code):
        weyl_csv, tail_csv = _forward_csvs(tmp_path)
        cfg = dict(SCALAR_BOX, lambda_probes=probes,
                   input={"weyl": str(weyl_csv), "tail": str(tail_csv)})
        rc = main(["invert", "--config", write_cfg(tmp_path / "i.json", cfg),
                   "--out", str(tmp_path / "inv")])
        assert rc == code

    @pytest.mark.parametrize("mode", ["invert", "roundtrip"])
    @pytest.mark.parametrize("nodes, probes", [
        (41, [-2.0, -98.0]), (25, [-2.0, -32.0])])
    def test_unresolved_probe_fails_before_any_work(self, tmp_path, mode,
                                                    nodes, probes):
        # 0.7 and 0.4 sqrt(200) on [0, 2], |lambda|^(3/4) dx = 1.56 and
        # 1.12: exit 2 before the CSV files (absent here) are read or any
        # sample is computed
        cfg = dict(SCALAR_BOX, x_grid={"x_max": 2.0, "nodes": nodes},
                   lambda_probes=probes,
                   input={"weyl": str(tmp_path / "absent.csv"),
                          "tail": str(tmp_path / "absent.csv")})
        rc = main([mode, "--config", write_cfg(tmp_path / "c.json", cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "out" / "weyl.csv").exists()

    @pytest.mark.parametrize("nodes", [3, 5])
    def test_x_grid_below_stencil_span_is_config_error(self, tmp_path, nodes):
        # the read-out needs 7 slices: the config is rejected before any
        # slice is factored
        weyl_csv, tail_csv = _forward_csvs(tmp_path)
        cfg = _with(SCALAR_BOX, ("x_grid", "nodes"), nodes)
        cfg = dict(cfg, lambda_probes=[-0.1, -0.2],
                   input={"weyl": str(weyl_csv), "tail": str(tail_csv)})
        rc = main(["invert", "--config", write_cfg(tmp_path / "i.json", cfg),
                   "--out", str(tmp_path / "inv")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("x_max", [float("nan"), float("inf"), 0.0])
    def test_x_grid_x_max_not_finite_positive(self, tmp_path, x_max):
        weyl_csv, tail_csv = _forward_csvs(tmp_path)
        cfg = _with(SCALAR_BOX, ("x_grid", "x_max"), x_max)
        cfg["input"] = {"weyl": str(weyl_csv), "tail": str(tail_csv)}
        rc = main(["invert", "--config", write_cfg(tmp_path / "i.json", cfg),
                   "--out", str(tmp_path / "inv")])
        assert rc == EXIT_CONFIG

    def test_missing_input_key(self, tmp_path):
        rc = main(["invert", "--config", write_cfg(tmp_path / "i.json", SCALAR_BOX),
                   "--out", str(tmp_path / "inv")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("mode", ["invert", "forward"])
    def test_absent_file_is_io_error(self, tmp_path, mode):
        cfg = dict(SCALAR_BOX, input={"weyl": str(tmp_path / "absent.csv"),
                                      "tail": str(tmp_path / "absent.csv")})
        path = write_cfg(tmp_path / "i.json", cfg) if mode == "invert" \
            else str(tmp_path / "absent.json")
        rc = main([mode, "--config", path, "--out", str(tmp_path / "out")])
        assert rc == EXIT_IO

    def test_diverging_born_pass_is_numerical_failure(self, tmp_path, caplog):
        # the box sampled on 9 nodes: pass 2 changes Q by about 50 times
        # its L1 norm (and its error from 0.44 to 93)
        rc = main(["roundtrip", "--config",
                   write_cfg(tmp_path / "c.json", TINY),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_NUMERICAL
        assert "q_pass_change" in caplog.text

    def test_unresolved_jost_node_is_numerical_failure(self, tmp_path, caplog):
        # dx = 0.5: (dx^2/12) |Q| = 0.83 at Q = 40, a grid too coarse for
        # Q, and the error names a point (a non-finite Q is a config error
        # before it reaches the solver)
        cfg = copy.deepcopy(SCALAR_BOX)
        cfg["problem"]["potential"] = {"kind": "table",
                                       "x": [0.0, 0.5, 1.0, 1.5, 2.0],
                                       "values": [0.3, 40.0, 0.3, 0.0, 0.0]}
        rc = main(["forward", "--config", write_cfg(tmp_path / "c.json", cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_NUMERICAL
        assert re.search(r"ConvergenceError: .* does not resolve Q; rho = \S",
                         caplog.text)

    @pytest.mark.parametrize("code, errors", [
        (EXIT_CONFIG, _CONFIG_ERRORS), (EXIT_NUMERICAL, _NUMERICAL_ERRORS)])
    def test_readme_table_names_every_mapped_error(self, code, errors):
        # the README exit-code row lists each class the mapping catches
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        rows = [line for line in readme.splitlines()
                if line.startswith(f"| {code} |")]
        assert len(rows) == 1
        raised_as = rows[0].rstrip(" |").rsplit("|", 1)[1]
        for cls in errors:
            name = "csv.Error" if cls is csv.Error else cls.__name__
            assert f"`{name}`" in raised_as, name


def test_roundtrip_scores_the_problem_it_sampled(tmp_path):
    # a random-unitary boundary is drawn once per run, so roundtrip writes
    # the same samples as forward with the same seed; the box is sampled
    # on 151 nodes, as on 9 the Born pass diverges and roundtrip exits 3
    cfg = _with(TINY, ("problem", "potential"),
                SCALAR_BOX["problem"]["potential"])
    cfg["problem"]["boundary"] = {"form": "random-unitary"}
    path = write_cfg(tmp_path / "c.json", cfg)
    for mode in ("forward", "roundtrip"):
        assert main([mode, "--config", path, "--out", str(tmp_path / mode),
                     "--seed", "11"]) == 0
    assert ((tmp_path / "forward" / "weyl.csv").read_bytes()
            == (tmp_path / "roundtrip" / "weyl.csv").read_bytes())


def test_stage_entered_twice_reports_the_sum(tmp_path, monkeypatch):
    # roundtrip enters "emit" after forward and again after invert
    ticks = iter([1.0, 3.0, 10.0, 15.0])
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
    rep = _Report({}, str(tmp_path))
    for _ in range(2):
        with rep.stage("emit"):
            pass
    assert rep.data["timings"] == {"emit": 7.0}


# ---------------------------------------------------------------------------
# Property: no mutation of a valid job ends in a traceback
# ---------------------------------------------------------------------------

MODES = ["forward", "invert", "roundtrip", "zeros", "validate-bc"]

# JSON values small enough that no mutated size makes a run slow or large
json_scalars = (st.none() | st.booleans() | st.integers(-3, 40)
                | st.floats(-1e3, 1e3) | st.text(max_size=4))
json_values = st.recursive(
    json_scalars,
    lambda v: st.lists(v, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                        v, max_size=3),
    max_leaves=6)
csv_cells = (st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
             | st.floats().map(repr))


def _key_paths(node, prefix=()):
    """Every key path into a tree of JSON objects and arrays."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def tiny_samples(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    assert main(["forward", "--config", write_cfg(out / "c.json", TINY),
                 "--out", str(out)]) == 0
    return {name: list(csv.reader((out / f"{name}.csv").open(newline="")))
            for name in ("weyl", "tail")}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mutated_job_exits_with_documented_code(tiny_samples, data):
    mode = data.draw(st.sampled_from(MODES), label="mode")
    target = data.draw(st.sampled_from(["config", "weyl", "tail"])
                       if mode == "invert" else st.just("config"),
                       label="target")
    samples = copy.deepcopy(tiny_samples)
    cfg = copy.deepcopy(TINY)
    if target == "config":
        path = data.draw(st.sampled_from(list(_key_paths(cfg))), label="path")
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if data.draw(st.booleans(), label="drop"):
            del node[path[-1]]
        else:
            node[path[-1]] = data.draw(json_values, label="value")
    else:
        rows = samples[target]
        i = data.draw(st.integers(0, len(rows) - 1), label="row")
        j = data.draw(st.integers(0, len(rows[i]) - 1), label="column")
        rows[i][j] = data.draw(csv_cells, label="cell")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, rows in samples.items():
            with (tmp / f"{name}.csv").open("w", newline="") as f:
                csv.writer(f).writerows(rows)
        if mode == "invert":
            cfg["input"] = {"weyl": str(tmp / "weyl.csv"),
                            "tail": str(tmp / "tail.csv")}
        rc = main([mode, "--config", write_cfg(tmp / "c.json", cfg),
                   "--out", str(tmp / "out")])
    assert rc in (0, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO)


@pytest.mark.parametrize("target, row, column, cell", [
    # a contour node at Im rho = 542 (its sines overflow the Nystrom fill)
    # or at Re rho = 1e103, far outside |lambda| <= R
    ("weyl", 1, 2, "542.0"), ("weyl", 1, 1, "1e103"),
    # an M entry that overflows the fill
    ("weyl", 20, 5, "1.7e308"),
    # tail points that overflow the tail fit's rows or extract_A's fit
    ("tail", 1, 1, "1e154"), ("tail", 1, 2, "1e103"), ("tail", 1, 2, "5e-324"),
    ("tail", 1, 2, "1e-200"), ("tail", 1, 5, "1.7e308"),
], ids=lambda v: str(v))
def test_overflowing_sample_is_numerical_failure(tiny_samples, tmp_path, target,
                                                  row, column, cell):
    # each used to end in a RuntimeWarning traceback (pytest turns the
    # warning into an error), seen by test_mutated_job_exits_with_documented_code
    samples = copy.deepcopy(tiny_samples)
    samples[target][row][column] = cell
    for name, rows in samples.items():
        with (tmp_path / f"{name}.csv").open("w", newline="") as f:
            csv.writer(f).writerows(rows)
    cfg = dict(TINY, input={"weyl": str(tmp_path / "weyl.csv"),
                            "tail": str(tmp_path / "tail.csv")})
    rc = main(["invert", "--config", write_cfg(tmp_path / "c.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_NUMERICAL


def test_omitted_keys_take_the_library_defaults(tmp_path):
    # a config without the contour and potential sizes, the zero-scan
    # density and the probes runs with the library's values: the files
    # match those of a config that spells the values out
    lean = copy.deepcopy(TINY)
    # a bound state, shallow enough that the Born pass converges on the 9
    # slices (at -6 it diverges and invert exits 3), and a circle that
    # encloses its energy
    lean["problem"]["potential"]["coupling"] = [-2.0, 0.0]
    lean["contour"]["r0"] = 8.0
    for path in (("contour", "n_cut"), ("contour", "n_circle"),
                 ("problem", "potential", "nodes"), ("zeros", "grid_density"),
                 ("lambda_probes",)):
        node = lean
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    spelled = copy.deepcopy(lean)
    spelled["contour"].update(n_circle=64, n_cut=128)
    spelled["problem"]["potential"]["nodes"] = 201
    spelled["zeros"]["grid_density"] = 24
    spelled["lambda_probes"] = [-2.0, -5.0]
    files = {"forward": ["weyl.csv", "tail.csv"], "zeros": ["zeros.csv"],
             "invert": ["q_recovered.csv", "boundary_recovered.json"]}
    reports = {}
    for name, cfg in (("lean", lean), ("spelled", spelled)):
        out = tmp_path / name
        cfg = dict(cfg, input={"weyl": str(out / "forward" / "weyl.csv"),
                               "tail": str(out / "forward" / "tail.csv")})
        path = write_cfg(tmp_path / f"{name}.json", cfg)
        for mode in files:
            assert main([mode, "--config", path, "--out", str(out / mode)]) == 0
            reports[name, mode] = json.loads(
                (out / mode / "report.json").read_text())
    for mode, names in files.items():
        for f in names:
            assert ((tmp_path / "lean" / mode / f).read_bytes()
                    == (tmp_path / "spelled" / mode / f).read_bytes()), f
        assert (reports["lean", mode]["manifest"]
                == reports["spelled", mode]["manifest"])
    assert reports["lean", "forward"]["diagnostics"]["n_contour_nodes"] == 64 + 2 * 128
    # every zero is written as two floats
    rows = (tmp_path / "lean" / "zeros" / "zeros.csv").read_text().splitlines()
    assert len(rows) == 2
    assert all(np.isfinite(float(v)) for row in rows[1:] for v in row.split(","))

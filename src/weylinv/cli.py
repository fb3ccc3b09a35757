"""Batch front end.

Subcommands: forward | invert | roundtrip | zeros | validate-bc.
All configuration comes from a single JSON file (--config); data goes to
files under --out, logs to stderr, and every run writes report.json with
input echo, stage timings, diagnostics, and a sha256 manifest of emitted
files.

JSON conventions: complex scalars as [re, im] pairs, matrices as
row-major nested arrays (entries either real numbers or [re, im]).

Exit codes: 0 success, 2 malformed input (a missing key, a value of the
wrong type or range, a garbled CSV file), 3 numerical failure, 4 I/O
error.  main is the one place that maps exceptions to exit codes; the
log line names the mode, the exception type and its message.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import boundary as bnd
from . import potentials
from .contour import Contour, ContourNode, build_contour
from .core import (
    BoundaryCondition,
    ConvergenceError,
    DataQualityError,
    DomainError,
    PoleProximityError,
    PotentialGrid,
    ReconstructionError,
    SpectralPoint,
    matnorm,
)
from .forward import Problem, scan_jost_zeros, zero_potential
from .inverse import InvertConfig, WeylData, generate_weyl_data, invert

__all__ = ["main", "run", "load_config"]

log = logging.getLogger("weylinv")

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_NUMERICAL_ERRORS = (
    ConvergenceError,
    PoleProximityError,
    DataQualityError,
    ReconstructionError,
    DomainError,
    np.linalg.LinAlgError,
)

# Malformed input: a missing key, a value of the wrong type or range, a
# short or garbled CSV file.  ValueError covers ConfigError and
# json.JSONDecodeError.  OverflowError is a number out of float range:
# float() rejects a 400-digit integer.
_CONFIG_ERRORS = (
    KeyError,
    TypeError,
    ValueError,
    IndexError,
    StopIteration,
    csv.Error,
    OverflowError,
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# JSON value parsing
# ---------------------------------------------------------------------------

def _as_float(v) -> float:
    """A config number as a finite float: NaN, an infinity, a string or a
    bool is a ConfigError."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"expected a number, got {v!r}")
    x = float(v)
    if not math.isfinite(x):
        raise ConfigError(f"expected a finite number, got {v!r}")
    return x


def _as_int(v) -> int:
    """A config count as an int: a bool, a string or a number with a
    fractional part (6.9, where int() would run 6) is a ConfigError."""
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not float(v).is_integer()):
        raise ConfigError(f"expected an integer, got {v!r}")
    return int(v)


def _as_complex(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    raise ConfigError(f"expected number or [re, im] pair, got {v!r}")


def _as_matrix(rows):
    return np.array([[_as_complex(v) for v in row] for row in rows])


def _json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


def _given(spec: dict, **casts) -> dict:
    """The keys of spec named in casts, each through its cast.  A key that
    spec leaves out is not passed on, so the library's default holds."""
    return {key: cast(spec[key]) for key, cast in casts.items() if key in spec}


def _complex_out(z):
    z = complex(z)
    return [z.real, z.imag]


def _matrix_out(M):
    return [[_complex_out(v) for v in row] for row in np.atleast_2d(M)]


def load_config(path: str) -> dict:
    """The config object of the JSON file at path.  NaN, Infinity and a
    float literal out of range (1e400) are ConfigErrors, wherever they
    stand."""
    def finite(text):
        return _as_float(float(text))

    with open(path) as f:
        return _json_object(json.load(f, parse_float=finite,
                                      parse_constant=finite), "config root")


# ---------------------------------------------------------------------------
# Problem construction from config
# ---------------------------------------------------------------------------

def _build_boundary(spec, n: int, rng) -> BoundaryCondition:
    spec = _json_object(spec, "problem.boundary")
    form = spec.get("form")
    if form == "projector":
        return BoundaryCondition(A=_as_matrix(spec["A"]), h=_as_matrix(spec["h"]))
    if form == "unitary":
        return bnd.from_unitary(_as_matrix(spec["U"]))
    if form == "delta":
        return bnd.delta_condition(n, _as_float(spec["coupling"]))
    if form == "dirichlet":
        return bnd.dirichlet(n)
    if form == "neumann":
        return bnd.neumann(n)
    if form == "random-unitary":
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        U, _ = np.linalg.qr(X)
        return bnd.from_unitary(U)
    raise ConfigError(f"unknown boundary form {form!r}")


def _build_potential(spec, n: int) -> PotentialGrid:
    spec = _json_object(spec, "problem.potential")
    kind = spec.get("kind")
    grid = _given(spec, x_max=_as_float, nodes=_as_int)
    if kind == "zero":
        return zero_potential(n, **grid)
    if kind == "box":
        coupling = _as_matrix(spec["coupling"]) if n > 1 else _as_complex(spec["coupling"])
        return potentials.box(coupling, _as_float(spec["x_cut"]), **grid)
    if kind == "gaussian":
        coupling = _as_matrix(spec["coupling"]) if n > 1 else _as_complex(spec["coupling"])
        return potentials.gaussian(coupling, _as_float(spec["center"]),
                                   _as_float(spec["width"]), **grid)
    if kind == "table":
        return potentials.from_table(
            np.array([_as_float(x) for x in spec["x"]]),
            np.array([_as_matrix(v) if n > 1 else _as_complex(v)
                      for v in spec["values"]]),
        )
    raise ConfigError(f"unknown potential kind {kind!r}")


def _build_problem(cfg: dict, rng) -> Problem:
    spec = _json_object(cfg["problem"], "problem")
    n = _as_int(spec["dim"])
    bc = _build_boundary(spec["boundary"], n, rng)
    return Problem(potential=_build_potential(spec["potential"], n), bc=bc)


def _contour_params(spec) -> dict:
    """build_contour's arguments from the config's contour object; a null
    delta, like an absent one, takes the default."""
    c = _json_object(spec, "contour")
    return dict(r0=_as_float(c["r0"]), R=_as_float(c["R"]),
                **_given(c, delta=lambda d: None if d is None else _as_float(d),
                         n_circle=_as_int, n_cut=_as_int))


def _invert_config(cfg: dict) -> InvertConfig:
    g = cfg["x_grid"]
    return InvertConfig(x_max=_as_float(g["x_max"]),
                        x_nodes=_as_int(g["nodes"]),
                        **_given(cfg, lambda_probes=lambda ps: tuple(
                            map(_as_float, ps))))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

_WEYL_COLUMNS = ["segment", "re_rho", "im_rho", "weight_re", "weight_im"]


def _columns(lead, name="", n=0):
    """The lead columns, then re and im columns of each entry name{i}{j}
    of an n x n matrix."""
    return lead + [f"{name}{i}{j}_{part}" for i in range(n) for j in range(n)
                   for part in ("re", "im")]


def _write_csv(path: str, columns, rows) -> None:
    """Write the header, then each (labels, values) row: the label cells as
    given, then every complex value as its re, im pair (repr of a float)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(columns)
        for labels, values in rows:
            w.writerow([*labels] + [repr(float(v)) for z in values
                                    for v in (z.real, z.imag)])


def _write_json(path: str, data) -> None:
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def write_weyl_csv(path: str, weyl: WeylData) -> None:
    _write_csv(path, _columns(_WEYL_COLUMNS, "M", weyl.dim),
               (([nd.segment], (nd.point.rho, nd.weight, *np.ravel(M)))
                for nd, M in zip(weyl.contour.nodes, weyl.M_samples)))


def write_tail_csv(path: str, weyl: WeylData) -> None:
    _write_csv(path, _columns(_WEYL_COLUMNS, "M", weyl.dim),
               ((["tail"], (pt.rho, 0j, *np.ravel(M)))
                for pt, M in weyl.tail_samples))


def _read_weyl_rows(path: str):
    """Sample dimension n and the (segment, rho, weight, M) rows of a file
    written by write_weyl_csv or write_tail_csv."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        rows = list(reader)
    lead = len(_WEYL_COLUMNS)
    n = math.isqrt(max(len(header) - lead, 0) // 2)
    if n == 0 or len(header) != lead + 2 * n * n:
        raise ConfigError(f"{path}: header needs {lead} + 2 n^2 columns with "
                          f"n >= 1, has {len(header)}")
    out = []
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ConfigError(f"{path}, line {line}: {len(row)} fields, "
                              f"header has {len(header)}")
        z = np.array(row[1:], dtype=float).view(complex)
        out.append((row[0], z[0], z[1], z[2:].reshape(n, n)))
    return n, out


def read_weyl_csv(weyl_path: str, tail_path: str, contour_params: dict) -> WeylData:
    n, rows = _read_weyl_rows(weyl_path)
    tn, tail = _read_weyl_rows(tail_path)
    if tn != n:
        raise ConfigError("tail and contour samples disagree on dimension")
    c = _contour_params(contour_params)
    contour = Contour(
        r0=c["r0"], R=c["R"], delta=c.get("delta"),
        nodes=tuple(ContourNode(point=SpectralPoint(rho), weight=weight,
                                segment=segment)
                    for segment, rho, weight, _ in rows),
    )
    return WeylData(contour=contour, M_samples=np.array([M for *_, M in rows]),
                    tail_samples=tuple((SpectralPoint(rho), M)
                                       for _, rho, _, M in tail))


def write_potential_csv(path: str, grid: PotentialGrid) -> None:
    _write_csv(path, _columns(["x"], "Q", grid.dim),
               (([repr(float(x))], Q.ravel())
                for x, Q in zip(grid.x_nodes, grid.values)))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Mode implementations
# ---------------------------------------------------------------------------

class _Report:
    def __init__(self, cfg, out_dir):
        self.data = {"inputs": cfg, "timings": {}, "diagnostics": {},
                     "error_norms": {}, "manifest": {}}
        self.out_dir = out_dir

    @contextmanager
    def stage(self, name):
        """Time the enclosed block into timings[name]; a stage entered
        more than once reports the sum of its times."""
        log.info("stage %s ...", name)
        t0 = time.perf_counter()
        yield
        timings = self.data["timings"]
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0

    def emit(self, name, write, *args):
        """Write the file name under out_dir by write(path, *args) and
        enter its sha256 in the manifest."""
        path = os.path.join(self.out_dir, name)
        write(path, *args)
        self.data["manifest"][name] = _sha256(path)

    def write(self):
        _write_json(os.path.join(self.out_dir, "report.json"), self.data)


def _boundary_out(bc) -> dict:
    return {"A": _matrix_out(bc.A), "h": _matrix_out(bc.h)}


def _forward(cfg, rep, problem: Problem) -> WeylData:
    contour = build_contour(**_contour_params(cfg["contour"]))
    tail_ts = _json_object(cfg.get("tail", {}), "tail").get("ts")
    with rep.stage("forward"):
        weyl = generate_weyl_data(
            problem, contour,
            tail_ts=None if tail_ts is None else np.asarray(tail_ts))
    with rep.stage("emit"):
        rep.emit("weyl.csv", write_weyl_csv, weyl)
        rep.emit("tail.csv", write_tail_csv, weyl)
    rep.data["diagnostics"]["n_contour_nodes"] = len(contour)
    return weyl


def _invert(cfg, rep, weyl: WeylData):
    icfg = _invert_config(cfg)
    with rep.stage("invert"):
        result = invert(weyl, icfg)
    with rep.stage("emit"):
        rep.emit("q_recovered.csv", write_potential_csv, result.Q)
        rep.emit("boundary_recovered.json", _write_json, _boundary_out(result))
    for k, v in result.diagnostics.items():
        # blas_threads is None where no OpenBLAS can be read; real_system
        # is a bool
        rep.data["diagnostics"][k] = (v if v is None or isinstance(v, bool)
                                      else float(v))
    return result


def _mode_forward(cfg, rep, rng):
    _forward(cfg, rep, _build_problem(cfg, rng))


def _mode_invert(cfg, rep, rng):
    inp = cfg.get("input", {})
    _invert(cfg, rep, read_weyl_csv(inp["weyl"], inp["tail"], cfg["contour"]))


def _mode_roundtrip(cfg, rep, rng):
    problem = _build_problem(cfg, rng)
    result = _invert(cfg, rep, _forward(cfg, rep, problem))
    with rep.stage("compare"):
        rep.data["error_norms"]["q_l1_relative"] = result.Q.relative_l1(
            problem.potential)
        rep.data["error_norms"]["h_error"] = float(matnorm(result.h - problem.bc.h))
        rep.data["error_norms"]["A_error"] = float(matnorm(result.A - problem.bc.A))


def _mode_zeros(cfg, rep, rng):
    problem = _build_problem(cfg, rng)
    spec = _json_object(cfg.get("zeros", {}), "zeros")
    radius = _as_float(spec.get("radius", 10.0))
    with rep.stage("zeros"):
        zeros, r0 = scan_jost_zeros(problem, radius,
                                    **_given(spec, grid_density=_as_int))
    with rep.stage("emit"):
        rep.emit("zeros.csv", _write_csv, ["re_lambda", "im_lambda"],
                 (((), (z,)) for z in zeros))
    rep.data["diagnostics"]["n_zeros"] = len(zeros)
    rep.data["diagnostics"]["suggested_r0"] = float(r0)


def _mode_validate_bc(cfg, rep, rng):
    spec = _json_object(cfg["problem"], "problem")
    with rep.stage("validate"):
        bc = _build_boundary(spec["boundary"], _as_int(spec["dim"]), rng)
    with rep.stage("emit"):
        rep.emit("boundary.json", _write_json, _boundary_out(bc))
    for k, v in bc.residuals().items():
        rep.data["diagnostics"][k] = float(v)


_MODES = {
    "forward": _mode_forward,
    "invert": _mode_invert,
    "roundtrip": _mode_roundtrip,
    "zeros": _mode_zeros,
    "validate-bc": _mode_validate_bc,
}


def run(mode: str, cfg: dict, out_dir: str, seed=None) -> dict:
    """Execute one mode; returns the report dict (also written to disk)."""
    os.makedirs(out_dir, exist_ok=True)
    rep = _Report(cfg, out_dir)
    _MODES[mode](cfg, rep, np.random.default_rng(seed))
    rep.write()
    return rep.data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weylinv",
        description="Weyl-matrix forward evaluation and inverse reconstruction",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")

    def fail(what, code, exc):
        log.error("%s in mode %s: %s: %s", what, args.mode,
                  type(exc).__name__, exc)
        return code

    # DomainError and LinAlgError are ValueErrors, so the numerical clause
    # comes first.
    try:
        run(args.mode, load_config(args.config), args.out, seed=args.seed)
    except _NUMERICAL_ERRORS as exc:
        return fail("numerical failure", EXIT_NUMERICAL, exc)
    except _CONFIG_ERRORS as exc:
        return fail("config error", EXIT_CONFIG, exc)
    except OSError as exc:
        return fail("I/O error", EXIT_IO, exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())

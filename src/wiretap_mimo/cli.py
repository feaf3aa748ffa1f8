"""Command-line surface: scenario files in, capacity tables out.

Subcommands: ``solve`` (single power point), ``sweep`` (power grid),
``certify`` (ZF/WF/IS verdicts), ``oracle`` (Monte-Carlo estimate) and
``figure`` (built-in demo sweeps).  Each runs a solver list through
:func:`run_sweep`, except ``figure fig3``, and takes ``--out``, ``--format``
and ``--units``; the oracle's ``--samples`` and ``--seed`` exactly when that
list names ``"oracle"``.  Scenario files are JSON; matrices are row-major
nested arrays with complex entries written as [re, im] pairs and a
"matrix_kind" field choosing between Gram matrices (W) and raw channels (H).

Output is CSV (stable header: snr_db,p_t,solver,capacity,lower,upper,lambda,
active_modes,status) or JSON.  Capacities are in nats unless --units bits.
Exit codes: 0 success, 1 input or usage error, 2 solver non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from . import auto, certificates, common_rsv, omnidirectional, weak_eavesdropper
from .core import (CapacityBoundsGrid, ChannelPair, ConvergenceError,
                   NATS_PER_BIT, SolveResultGrid, SolveStatus)
from .isotropic import IsotropicProblem, capacity_bounds_isotropic, solve_isotropic
from .oracle import Objective, OracleConfig, mc_capacity

CSV_HEADER = "snr_db,p_t,solver,capacity,lower,upper,lambda,active_modes,status"

_SOLVER_NAMES = ("auto", "weak", "isotropic", "omni", "rsv", "certify", "oracle")


@dataclass
class ScenarioSpec:
    pair: ChannelPair
    grid: list[tuple[float, float]]  # (snr_db, p_t) in grid order
    solvers: list[str]
    oracle_cfg: OracleConfig
    out_format: str = "csv"
    units: str = "nats"


def _number(value, where: str) -> float:
    """``value`` as a float when it is a finite JSON number (an int or a
    float, never a bool); otherwise a ValueError naming ``where``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _parse_matrix(obj, where: str) -> np.ndarray:
    """A matrix of numbers, or of complex numbers as [re, im] pairs, checked
    as one array; an entry alone only to name the first bad one."""
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: expected a nonempty nested array")
    rows = []
    for row in obj:  # every row up to the first that is no nonempty list
        if not isinstance(row, list) or not row:
            break
        rows.append([e if type(e) is list and len(e) == 2 else [e, 0] for e in row])
    numbers = list(chain.from_iterable(chain.from_iterable(rows)))
    if not (set(map(type, numbers)) <= {int, float}
            and all(map(sys.float_info.max.__ge__, map(abs, numbers)))):
        for i, (row, pairs) in enumerate(zip(obj, rows)):  # _number's rule, entry by entry
            for j, pair in enumerate(pairs):
                for part in pair if pair is row[j] else pair[:1]:
                    _number(part, f"{where}[{i}][{j}]")
    if len(rows) < len(obj):
        raise ValueError(f"{where}: row {len(rows)} is not a nonempty array")
    if len({len(r) for r in rows}) != 1:
        raise ValueError(f"{where}: rows have inconsistent lengths")
    mat = np.array(numbers, dtype=float).view(complex).reshape(len(rows), -1)
    return mat.real if np.all(mat.imag == 0) else mat


def _parse_channel(obj) -> ChannelPair:
    if not isinstance(obj, dict):
        raise ValueError("field 'channel': expected an object")
    kind = obj.get("matrix_kind")
    if kind == "W":
        keys = ("w1", "w2")
    elif kind == "H":
        keys = ("h1", "h2")
    else:
        raise ValueError("field 'channel.matrix_kind': must be 'W' or 'H'")
    extra = set(obj) - {"matrix_kind", *keys}
    if extra or not all(k in obj for k in keys):
        raise ValueError(
            f"field 'channel': exactly one channel source is allowed; "
            f"matrix_kind {kind!r} requires keys {keys}")
    a = _parse_matrix(obj[keys[0]], f"channel.{keys[0]}")
    b = _parse_matrix(obj[keys[1]], f"channel.{keys[1]}")
    if kind == "W":
        if a.shape[0] != a.shape[1] or b.shape != a.shape:
            raise ValueError("field 'channel': W1 and W2 must be square with equal shape")
        return ChannelPair.from_gram(a, b)
    return ChannelPair.from_channels(a, b)


def _parse_grid(obj) -> list[tuple[float, float]]:
    if not isinstance(obj, dict):
        raise ValueError("field 'power_grid': expected an object")
    if "p_t" in obj:
        values = obj["p_t"]
        if not isinstance(values, list) or not values:
            raise ValueError("field 'power_grid.p_t': expected a nonempty list")
        powers = [_number(v, "field 'power_grid.p_t'") for v in values]
        if min(powers) <= 0:
            raise ValueError(f"field 'power_grid.p_t': invalid power {min(powers)!r}")
        return [(10.0 * math.log10(v), v) for v in powers]
    needed = ("db_start", "db_stop", "db_step")
    if all(k in obj for k in needed):
        start, stop, step = (_number(obj[k], f"field 'power_grid.{k}'") for k in needed)
        grid = []
        if step > 0 and stop >= start:
            try:  # OverflowError: infinitely many points or a power past float range
                grid = [(start + i * step, 10.0 ** ((start + i * step) / 10.0))
                        for i in range(math.floor((stop - start) / step + 1e-9) + 1)]
            except OverflowError:
                pass
        if not grid or grid[0][1] == 0.0:  # the powers grow along the grid
            raise ValueError("field 'power_grid': a dB range needs db_step > 0, "
                             "db_stop >= db_start, finitely many points and "
                             "finite positive powers")
        return grid
    raise ValueError("field 'power_grid': provide either 'p_t' or "
                     "'db_start'/'db_stop'/'db_step'")


def _parse_solvers(obj) -> list[str]:
    if obj is None:
        return ["auto"]
    names = [obj] if isinstance(obj, str) else obj
    if not isinstance(names, list) or not names:
        raise ValueError("field 'solver': expected a name or nonempty list of names")
    for name in names:
        if name not in _SOLVER_NAMES:
            raise ValueError(f"field 'solver': unknown solver {name!r}; "
                             f"choose from {_SOLVER_NAMES}")
    return list(names)


def load_scenario(path: str, oracle_overrides: dict | None = None) -> ScenarioSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ValueError(f"invalid JSON in {path}: line {err.lineno}: {err.msg}")
    if not isinstance(doc, dict):
        raise ValueError("scenario file must contain a JSON object")
    if "channel" not in doc or "power_grid" not in doc:
        raise ValueError("scenario requires 'channel' and 'power_grid' fields")
    oracle_doc = doc.get("oracle", {})
    if not isinstance(oracle_doc, dict):
        raise ValueError("field 'oracle': expected an object")
    oracle_doc = {**oracle_doc, **(oracle_overrides or {})}
    bad = set(oracle_doc) - {f.name for f in fields(OracleConfig)}
    if bad:
        raise ValueError(f"field 'oracle': unknown keys {sorted(bad)}")
    out_format = doc.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ValueError("field 'format': must be 'csv' or 'json'")
    units = doc.get("units", "nats")
    if units not in ("nats", "bits"):
        raise ValueError("field 'units': must be 'nats' or 'bits'")
    return ScenarioSpec(
        pair=_parse_channel(doc["channel"]),
        grid=_parse_grid(doc["power_grid"]),
        solvers=_parse_solvers(doc.get("solver")),
        oracle_cfg=OracleConfig(**oracle_doc),
        out_format=out_format,
        units=units,
    )


def _nested(cov: np.ndarray) -> list:
    """A matrix, or a stack, as nested lists: a complex entry as an [re, im] pair."""
    return (np.stack([cov.real, cov.imag], -1) if np.iscomplexobj(cov) else cov).tolist()


def _records(grid, label: str, outs, scale: float, covariance: bool) -> list[dict]:
    """Per point of one solver's outcome, a record keyed by the CSV columns (with
    ``covariance``, a covariance as nested lists last), rates divided by ``scale``,
    each column from one array of a SolveResultGrid, CapacityBoundsGrid or
    CertificateGrid; or the oracle's (value, covariance) pairs; or a ValueError."""
    cap = low = up = lam = modes = covs = [None] * (n := len(grid))
    if isinstance(outs, ValueError):
        status = [f"error: {outs}"] * n
    elif isinstance(outs, certificates.CertificateGrid):  # none where a point fails
        held = (outs.verdicts == certificates.Verdict.SUFFICIENT_HOLDS).tolist()
        cap = [c if h else None for c, h in zip((outs.capacities / scale).tolist(), held)]
        lam = [d.get("water_lambda") for d in outs.details]
        status = [v.value for v in outs.verdicts]
        if covariance:
            held_covs = iter(_nested(outs.covariances[held]))
            covs = [next(held_covs) if h else None for h in held]
    elif isinstance(outs, CapacityBoundsGrid):
        low, cap, up = ((a / scale).tolist()
                        for a in (outs.lower_nats, outs.mid_nats, outs.upper_nats))
        status = [SolveStatus.BOUNDS_ONLY.value] * n
    elif isinstance(outs, SolveResultGrid):
        if outs.bounds is not None:
            low, up = ((a / scale).tolist() for a in (outs.bounds.lower_nats,
                                                       outs.bounds.upper_nats))
        cap, lam = (outs.capacities / scale).tolist(), outs.lambdas.tolist()
        modes, status = outs.active_modes.tolist(), [s.value for s in outs.statuses]
        if covariance:  # one point at a time: only `solve` asks, for one point
            covs = [_nested(outs.covariance_at(i)) for i in range(n)]
    else:  # the oracle's best value and covariance
        cap, status = [value / scale for value, _ in outs], ["Solved"] * n
        covs = [_nested(cov.entries) for _, cov in outs] if covariance else covs
    records = [{"snr_db": snr_db, "p_t": p_t, "solver": label, "capacity": c, "lower": lo,
                "upper": u, "lambda": la, "active_modes": k, "status": st}  # CSV_HEADER order
               for (snr_db, p_t), c, lo, u, la, k, st in zip(grid, cap, low, up, lam, modes,
                                                            status)]
    for rec, cov in zip(records, covs):
        if cov is not None:
            rec["covariance"] = cov
    return records


def _outcomes(spec: ScenarioSpec, name: str, powers: np.ndarray) -> list:
    """``(label, outcomes)`` columns of one named solver over the grid, each
    from one library call (three for ``certify``); an error fills all."""
    try:
        if name == "auto":
            return auto.solve_auto(spec.pair, powers).columns
        if name == "certify":
            return [(label, fn(spec.pair, powers))
                    for label, fn in (("certify:zf", certificates.zf_certify),
                                      ("certify:wf", certificates.wf_certify),
                                      ("certify:is", certificates.is_certify))]
        if name == "oracle":
            outs = mc_capacity(spec.pair, powers, Objective.EXACT, spec.oracle_cfg)
        elif name == "rsv":
            outs = common_rsv.solve_common_rsv(spec.pair.common_basis(), powers)
        else:
            outs = {"weak": weak_eavesdropper.solve_weak_with_bounds,
                    "isotropic": capacity_bounds_isotropic,
                    "omni": omnidirectional.solve_omni}[name](spec.pair, powers)
    except ValueError as err:  # NotCommutingError included
        return [(name, err)]
    return [(name, outs)]


def _table(grid, columns, units: str, covariance: bool = False) -> list[dict]:
    """Records per point in the order of the ``(label, outcomes)`` columns."""
    scale = NATS_PER_BIT if units == "bits" else 1.0
    return [rec for recs in zip(*(_records(grid, label, outs, scale, covariance)
                                  for label, outs in columns)) for rec in recs]


def run_sweep(spec: ScenarioSpec, covariance: bool = False) -> list[dict]:
    """Records (see :func:`_records`) per power point in solver-list order and the
    scenario's units; a solver's error lands in its status column, the sweep goes on."""
    powers = np.array([p_t for _, p_t in spec.grid])
    return _table(spec.grid, [column for name in spec.solvers
                              for column in _outcomes(spec, name, powers)],
                  spec.units, covariance)


def _fig1_spec(cfg: OracleConfig) -> ScenarioSpec:
    pair = ChannelPair.from_gram(np.diag([2.0, 1.0]),
                                 0.1 * np.array([[2.0, 1.0], [1.0, 1.0]]))
    grid = _parse_grid({"db_start": -10, "db_stop": 20, "db_step": 1})
    return ScenarioSpec(pair, grid, ["weak", "oracle"], cfg)


def _fig3_rows(units: str) -> list[dict]:
    gains, epsilons = np.array([2.0, 1.0]), (0.0, 0.1, 0.5)
    grid = _parse_grid({"db_start": -10, "db_stop": 30, "db_step": 1})
    powers = np.array([p_t for _, p_t in grid])
    return _table(grid, [(f"isotropic(eps={eps:g})",
                          solve_isotropic(IsotropicProblem(gains, eps, powers)))
                         for eps in epsilons], units)


# json.dumps(..., indent=2) runs Python's own encoder, this one the C encoder.
# Its item separator is indent=2's joint of a record's fields; a raw newline
# is never inside an encoded string, and no number holds a bracket or brace.
_encode = json.JSONEncoder(separators=(",\n    ", ": "), check_circular=False).encode
_COVARIANCE = ',\n    "covariance": '


@functools.cache
def _covariance_layout(depth: int, size: int) -> str:
    """indent=2's text of a record's m x m covariance of ``size`` numbers nested
    ``depth`` lists deep (3: [re, im] pairs), with a ``%s`` slot for each number."""
    m = math.isqrt(size // (depth - 1))
    entry = [0, 0] if depth == 3 else 0
    return json.dumps([[entry] * m] * m, indent=2).replace("\n", "\n    ").replace("0", "%s")


def _json(records: list[dict]) -> str:
    """``json.dumps(records, indent=2)``, byte for byte, from one C-encoder call; a
    record's "covariance", if any, is last: m x m nested lists, [re, im] pairs if complex."""
    if not records:
        return "[]"
    head, *tails = _encode(records).split(_COVARIANCE)
    for i, tail in enumerate(tails):
        cov, _, rest = tail.partition("}")
        numbers = cov.replace("[", "").replace("]", "").split(",\n    ")
        depth = len(cov) - len(cov.lstrip("["))
        tails[i] = _covariance_layout(depth, len(numbers)) % tuple(numbers) + "}" + rest
    return "[\n  {\n    " + _COVARIANCE.join([head, *tails])[2:-2].replace(
        "},\n    {", "\n  },\n  {\n    ") + "\n  }\n]"


def _emit(records: list[dict], out_format: str, out_path: str | None) -> None:
    """CSV joins each record's values (a number to 10 significant digits,
    None empty); JSON prints the records as ``json.dumps(records, indent=2)``
    would."""
    if out_format == "csv":
        text = "\n".join([CSV_HEADER] + [",".join([
            "" if v is None else v if isinstance(v, str) else f"{v:.10g}"
            for v in rec.values()]) for rec in records]) + "\n"
    else:  # a new string: growing the text in place (+=) raises the bench's peak RSS
        text = _json(records) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError, so it exits 1 like any input
    error: argparse's own exit code 2 means non-convergence here."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared."""
    parser = _Parser(prog="wiretap-mimo",
                     description="Secrecy capacities and optimal signaling for "
                                 "Gaussian MIMO wiretap channels.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("solve", "solve a single power point"),
                       ("sweep", "solve every point of the power grid"),
                       ("certify", "run ZF/WF/IS optimality certificates"),
                       ("oracle", "Monte-Carlo capacity estimate"),
                       ("figure", "emit data for the built-in demo sweeps")):
        p = sub.add_parser(name, help=desc)
        if name == "figure":
            p.add_argument("which", choices=("fig1", "fig3"))
        else:
            p.add_argument("--input", required=True, help="scenario JSON file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--units", choices=("nats", "bits"), default=None)
        p.add_argument("--seed", type=int, help="oracle RNG seed")
        p.add_argument("--samples", type=int, help="oracle sample count")
    return parser


def _reject_oracle_flags(overrides: dict, what: str) -> None:
    if overrides:
        raise ValueError(f"{what} runs no oracle, so it takes no "
                         + " or ".join(f"--{k}" for k in overrides))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        overrides = {k: getattr(args, k) for k in ("seed", "samples")
                     if getattr(args, k) is not None}

        if args.command == "figure" and args.which == "fig3":
            _reject_oracle_flags(overrides, "figure fig3")
            _emit(_fig3_rows(args.units or "nats"), args.format or "csv", args.out)
            return 0
        if args.command == "figure":
            spec = _fig1_spec(OracleConfig(**overrides))
        else:
            spec = load_scenario(args.input, oracle_overrides=overrides)
        if args.command in ("certify", "oracle"):
            spec.solvers = [args.command]
        if args.command == "solve" and len(spec.grid) != 1:
            raise ValueError("'solve' requires exactly one power point; "
                             "use 'sweep' for grids")
        if "oracle" not in spec.solvers:
            _reject_oracle_flags(overrides, f"{args.command} with no 'oracle' solver")
        out_format = args.format or spec.out_format
        spec.units = args.units or spec.units
        _emit(run_sweep(spec, covariance=out_format == "json"
                        and args.command in ("solve", "certify")), out_format, args.out)
        return 0
    except ConvergenceError as err:
        print(f"error: solver failed to converge: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

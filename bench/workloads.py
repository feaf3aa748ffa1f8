"""Seeded scenario generation, in-process CLI execution and output checks.

Each workload is a pool of *ops*: one ``wiretap_mimo.cli.main`` invocation on
one generated channel.  A *point* is one requested power value of an op.  The
workload seed only drives the generator here; the library sees nothing but
the scenario files written from it.

Pools are stratified: every (class, m) cell appears equally often, and the
op order cycles through the cells, so any prefix of a pool has the same mix
as the whole pool.  That keeps the mix, and so the timings, steady from one
seed to the next.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

import wiretap_mimo as wm
from wiretap_mimo import cli

SWEEP_GRID = (-10.0, 80.0, 2.0)      # the supported SNR range, 46 points
CERTIFY_GRID = (-10.0, 30.0, 2.0)    # 21 points
ORACLE_GRID = (0.0, 20.0, 10.0)      # 3 points
ORACLE_SAMPLES = 200_000             # OracleConfig.samples, the CLI default

# separable_oracle agreement is checked up to 20 dB, as in acceptance criterion 01
RSV_ORACLE_MAX_DB = 20.0
RSV_ORACLE_TOL = 1e-6
# relative slack of the bound-ordering, log-det and trace checks; CSV values
# carry 10 significant digits
REL_TOL = 1e-9


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    command: str          # CLI subcommand
    grid: tuple[float, float, float]
    classes: tuple[str, ...]
    ms: tuple[int, ...]
    per_cell: int         # channels per (class, m) cell in one pool


WORKLOADS = {
    "sweep_auto": WorkloadSpec(
        "sweep_auto", "sweep", SWEEP_GRID,
        ("commuting", "general", "rank_deficient", "omni_noncontained"),
        (2, 3, 4, 5), 2),
    "certify_grid": WorkloadSpec(
        "certify_grid", "certify", CERTIFY_GRID,
        ("is_constructed", "wf_constructed", "zf_commuting",
         "commuting_random", "noncommuting"),
        (2, 3, 4, 5), 10),
    "oracle_mc": WorkloadSpec(
        "oracle_mc", "oracle", ORACLE_GRID, ("general",), (2, 3, 4), 2),
}


def grid_points(grid: tuple[float, float, float]) -> list[tuple[float, float]]:
    """(snr_db, p_t) pairs exactly as the CLI computes them from a dB range."""
    start, stop, step = grid
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [(start + i * step, 10.0 ** ((start + i * step) / 10.0))
            for i in range(n)]


@dataclass
class Op:
    index: int
    cls: str
    m: int
    w1: np.ndarray                       # Gram matrices the scenario encodes
    w2: np.ndarray
    doc: dict                            # the scenario file's contents
    lam1: Optional[np.ndarray] = None    # generated shared-basis spectra
    lam2: Optional[np.ndarray] = None
    design_db: Optional[float] = None    # constructed certificate channels
    path: str = ""
    point_paths: list[str] = field(default_factory=list)


# --------------------------------------------------------------- generation

def _cgauss(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)


def _unitary(rng, m):
    q, r = np.linalg.qr(_cgauss(rng, m, m))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _wishart(rng, m):
    a = _cgauss(rng, m, m)
    return a @ a.conj().T / m


def _gram(v, lam):
    return (v * lam) @ v.conj().T


def _matrix_json(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return [[[float(x.real), float(x.imag)] for x in row] for row in a]
    return [[float(x) for x in row] for row in a]


def _channel_doc(kind, a, b):
    keys = ("w1", "w2") if kind == "W" else ("h1", "h2")
    return {"matrix_kind": kind, keys[0]: _matrix_json(a),
            keys[1]: _matrix_json(b)}


def _commuting(rng, m, zero_leak_modes=0):
    v = _unitary(rng, m)
    lam1 = rng.uniform(0.1, 3.0, m)
    lam2 = rng.uniform(0.0, 1.5, m) * lam1
    if zero_leak_modes:
        lam2[rng.choice(m, zero_leak_modes, replace=False)] = 0.0
    return v, lam1, lam2


def _contained_omni(rng, m):
    """W2 = eps U U^H with range(W1) inside span U (a commuting pair)."""
    r = int(rng.integers(1, m + 1))
    v = _unitary(rng, m)
    a = _wishart(rng, r)
    ev, vec = np.linalg.eigh(a)
    basis = np.concatenate([v[:, :r] @ vec, v[:, r:]], axis=1)
    eps = float(rng.uniform(0.2, 2.0))
    lam1 = np.concatenate([np.clip(ev, 0.0, None), np.zeros(m - r)])
    lam2 = np.concatenate([np.full(r, eps), np.zeros(m - r)])
    return basis, lam1, lam2


def _make_channel(rng, cls, m, spec, contained):
    """Returns (channel doc, W1, W2, lam1, lam2, design_db).  ``contained``
    picks the contained-omni half of the commuting class."""
    lam1 = lam2 = design_db = None
    if cls in ("general", "rank_deficient"):
        h1 = _cgauss(rng, m, m)
        rows = m if cls == "general" else 1
        h2 = _cgauss(rng, rows, m) * math.sqrt(rng.uniform(0.1, 1.0))
        return (_channel_doc("H", h1, h2), h1.conj().T @ h1, h2.conj().T @ h2,
                None, None, None)
    if cls == "omni_noncontained":
        r = int(rng.integers(1, m))
        u = _unitary(rng, m)[:, :r]
        w1 = _wishart(rng, m)
        w2 = float(rng.uniform(0.2, 2.0)) * (u @ u.conj().T)
    elif cls == "noncommuting":
        w1 = _wishart(rng, m)
        w2 = float(rng.uniform(0.1, 1.0)) * _wishart(rng, m)
    elif cls in ("commuting", "commuting_random", "zf_commuting"):
        if cls == "commuting" and contained:
            basis, lam1, lam2 = _contained_omni(rng, m)
        else:
            zeros = int(rng.integers(1, m)) if cls == "zf_commuting" else 0
            basis, lam1, lam2 = _commuting(rng, m, zeros)
        w1, w2 = _gram(basis, lam1), _gram(basis, lam2)
    elif cls in ("is_constructed", "wf_constructed"):
        design_db, p_t = grid_points(spec.grid)[
            int(rng.integers(len(grid_points(spec.grid))))]
        basis = _unitary(rng, m)
        if cls == "is_constructed":
            b1 = float(rng.uniform(1.0, 3.0))
            a1 = float(rng.uniform(0.25, 0.9)) * b1
            a = p_t / m
            lam = 1.0 / (a1 + a) - 1.0 / (b1 + a)
            bound = lam * a * a / (1.0 - lam * a)
            b_rest = bound + rng.uniform(0.1, 3.0, m - 1)
            pair = wm.construct_is_optimal_channel(m, p_t, b1, a1, b_rest,
                                                   basis=basis)
        else:
            lam1_wf = (np.sort(rng.uniform(0.4, 4.0, m))[::-1]
                       + np.linspace(0.1, 0.0, m))
            pair = wm.construct_wf_optimal_channel(
                lam1_wf, float(rng.uniform(0.3, 2.0)), basis=basis)
        w1, w2 = np.array(pair.w1.entries), np.array(pair.w2.entries)
    else:
        raise ValueError(f"unknown channel class {cls!r}")
    return _channel_doc("W", w1, w2), w1, w2, lam1, lam2, design_db


def generate(spec: WorkloadSpec, seed: int,
             per_cell: Optional[int] = None) -> list[Op]:
    """The workload's op pool; identical for identical (spec, seed)."""
    rng = np.random.default_rng(
        [seed, sorted(WORKLOADS).index(spec.name)])
    start, stop, step = spec.grid
    ops = []
    for rep in range(per_cell or spec.per_cell):
        for m in spec.ms:
            for cls in spec.classes:
                # exactly half of the commuting channels are contained omni:
                # alternating over m and over the cell's channels
                chan, w1, w2, lam1, lam2, design_db = _make_channel(
                    rng, cls, m, spec, (rep + m) % 2 == 0)
                doc = {"channel": chan,
                       "power_grid": {"db_start": start, "db_stop": stop,
                                      "db_step": step}}
                if spec.command == "sweep":
                    doc["solver"] = "auto"
                elif spec.command == "certify":
                    doc["format"] = "json"
                else:
                    doc["oracle"] = {"samples": ORACLE_SAMPLES,
                                     "seed": int(rng.integers(2 ** 31))}
                ops.append(Op(len(ops), cls, m, w1, w2, doc, lam1, lam2,
                              design_db))
    return ops


def write_scenarios(ops: list[Op], workdir: str) -> None:
    """One scenario file per op."""
    for op in ops:
        op.path = os.path.join(workdir, f"op{op.index:04d}.json")
        _write(op.path, json.dumps(op.doc))


def point_scenario(spec: WorkloadSpec, op: Op, i: int) -> str:
    """Write the op's scenario restricted to grid point ``i`` next to the
    op's file and return its path."""
    db = grid_points(spec.grid)[i][0]
    doc = dict(op.doc, power_grid={"db_start": db, "db_stop": db, "db_step": 1.0})
    path = f"{op.path.removesuffix('.json')}_p{i:02d}.json"
    _write(path, json.dumps(doc))
    return path


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------- execution

@dataclass
class Invocation:
    code: int
    out: str
    err: str
    seconds: float


def invoke(argv: list[str]) -> Invocation:
    """``cli.main(argv)`` with its output captured and its wall time;
    ``main`` is looked up on every call so that a traced binding is used."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        code = cli.main(argv)
        seconds = perf_counter() - t0
    return Invocation(code, out.getvalue(), err.getvalue(), seconds)


def execute(spec: WorkloadSpec, op: Op) -> list[Invocation]:
    """Run one op through the CLI.  A sweep that exits with code 2 (one
    ConvergenceError aborts the whole sweep) is re-run point by point; the
    point files are written on first use, outside every invocation's time."""
    first = invoke([spec.command, "--input", op.path])
    if first.code != 2 or spec.command != "sweep":
        return [first]
    if not op.point_paths:
        op.point_paths = [point_scenario(spec, op, i)
                          for i in range(len(grid_points(spec.grid)))]
    return [first] + [invoke([spec.command, "--input", p])
                      for p in op.point_paths]


def emitted_table(invocations: list[Invocation]) -> str:
    """The op's output as digested: every table, with each exit code."""
    return "".join(f"#exit {inv.code}\n{inv.out}" for inv in invocations)


# ------------------------------------------------------------------ parsing

def _parse_table(text: str) -> list[dict]:
    if not text.strip():
        return []
    if text.lstrip().startswith("["):
        return json.loads(text)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        # the status column may itself contain commas
        cells = line.split(",", len(header) - 1)
        row = dict(zip(header, cells))
        for key in ("snr_db", "p_t", "capacity", "lower", "upper", "lambda"):
            row[key] = float(row[key]) if row[key] != "" else None
        rows.append(row)
    return rows


def point_rows(spec: WorkloadSpec,
               invocations: list[Invocation]) -> list[Optional[list[dict]]]:
    """Rows per requested point, or None for a point without an answer."""
    grid = grid_points(spec.grid)
    if invocations[0].code == 0:
        sources = [invocations[0]]
    elif len(invocations) > 1:
        sources = invocations[1:]
    else:
        return [None] * len(grid)
    by_db: dict[float, list[dict]] = {}
    for inv in sources:
        if inv.code != 0:
            continue
        for row in _parse_table(inv.out):
            by_db.setdefault(round(row["snr_db"], 6), []).append(row)
    points = []
    for db, _ in grid:
        rows = by_db.get(round(db, 6))
        if rows and not any(r["status"].startswith("error") for r in rows):
            points.append(rows)
        else:
            points.append(None)
    return points


# ------------------------------------------------------------------- checks

def _close_le(a: float, b: float) -> bool:
    return a <= b + REL_TOL * max(1.0, abs(a), abs(b))


def _parse_cov(obj) -> np.ndarray:
    a = np.array(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1] if a.ndim == 3 else a


def _logdet_i_plus(w, r):
    _, val = np.linalg.slogdet(np.eye(w.shape[0]) + w @ r)
    return float(val)


def _check_sweep_point(op, db, p_t, rows):
    flags = []
    bounded = [r for r in rows if r["solver"] in ("weak", "isotropic")]
    if len(bounded) == 2:
        lower = max(r["lower"] for r in bounded)
        upper = min(r["upper"] for r in bounded)
        if not _close_le(lower, upper):
            flags.append(f"max(lower) {lower!r} > min(upper) {upper!r}")
    for r in rows:
        if r["solver"] != "rsv" or op.lam1 is None:
            continue
        cap = r["capacity"]
        good = op.lam1 > op.lam2
        with np.errstate(divide="ignore"):
            ceiling = float(np.sum(np.log(op.lam1[good] / op.lam2[good])))
        if not _close_le(cap, ceiling):
            flags.append(f"rsv capacity {cap!r} above saturation {ceiling!r}")
        if db <= RSV_ORACLE_MAX_DB:
            ref = wm.separable_oracle(op.lam1, op.lam2, p_t)
            if abs(cap - ref) > RSV_ORACLE_TOL:
                flags.append(f"rsv capacity {cap!r} vs separable oracle {ref!r}")
    return flags


def _check_certify_point(op, db, p_t, rows):
    flags = []
    for r in rows:
        if r["status"] != "SufficientHolds":
            continue
        cov = _parse_cov(r["covariance"])
        direct = _logdet_i_plus(op.w1, cov) - _logdet_i_plus(op.w2, cov)
        if abs(r["capacity"] - direct) > REL_TOL * max(1.0, abs(direct)):
            flags.append(f"{r['solver']} capacity {r['capacity']!r} vs "
                         f"slogdet {direct!r}")
        trace = float(np.trace(cov).real)
        if not _close_le(trace, p_t):
            flags.append(f"{r['solver']} tr R {trace!r} > P_T {p_t!r}")
    want = {"is_constructed": "certify:is",
            "wf_constructed": "certify:wf"}.get(op.cls)
    if want and db == op.design_db:
        verdicts = {r["solver"]: r["status"] for r in rows}
        if verdicts.get(want) != "SufficientHolds":
            flags.append(f"{want} at design power gave {verdicts.get(want)!r}")
    return flags


def _check_oracle_point(op, p_t, rows):
    pair = wm.ChannelPair.from_gram(op.w1, op.w2)
    lowers, uppers = [], []
    for bounds in (wm.capacity_bounds_weak, wm.capacity_bounds_isotropic):
        try:
            b = bounds(pair, p_t)
        except wm.ConvergenceError:
            continue
        lowers.append(b.lower_nats)
        uppers.append(b.upper_nats)
    flags = []
    for r in rows:
        cap = r["capacity"]
        if lowers and not (_close_le(max(lowers), cap)
                           and _close_le(cap, min(uppers))):
            flags.append(f"oracle {cap!r} outside [{max(lowers)!r}, "
                         f"{min(uppers)!r}]")
    return flags


def check_op(spec: WorkloadSpec, op: Op,
             points: list[Optional[list[dict]]]) -> list[tuple[int, str]]:
    """Independent checks of one op's answered points: (point index,
    message) for every flagged row, the message naming the op and point."""
    messages = []
    for i, ((db, p_t), rows) in enumerate(zip(grid_points(spec.grid), points)):
        if rows is None:
            continue
        if spec.command == "sweep":
            flags = _check_sweep_point(op, db, p_t, rows)
        elif spec.command == "certify":
            flags = _check_certify_point(op, db, p_t, rows)
        else:
            flags = _check_oracle_point(op, p_t, rows)
        messages += [(i, f"op {op.index} ({op.cls}, m={op.m}) at {db:g} dB: {f}")
                     for f in flags]
    return messages

"""Spans around the package's public functions, recorded from outside.

:class:`Tracer` rebinds every public function of every ``wiretap_mimo``
module, in each module that binds it by name, to a wrapper that records a
span: name, start, end, parent span, the op it served and how it ended.
``numpy.linalg.eigh``/``eigvalsh`` and a few sub-microsecond helpers are
counted instead, each call charged to the innermost open span.  Spans stay in
memory while the workload runs; :func:`layer_metrics` reduces them afterwards
and :meth:`Tracer.write` writes them out.  Leaving the ``with`` block
restores every binding.
"""

from __future__ import annotations

import types
from array import array
from time import perf_counter

import numpy as np

# helpers called so often that a span each would cost more than their work;
# they are counted, not timed
COUNTED = {"core.sym", "core.frob", "core.as_array", "core.as_hermitian",
           "_waterfill.secrecy_mode_powers"}
_METHODS = (("HermitianMatrix", "eig"), ("ChannelPair", "from_gram"),
            ("ChannelPair", "from_channels"))

# span outcomes
RETURNED, POSITIVE, CONVERGENCE_ERROR, OTHER_ERROR = 0, 1, -1, -2

# spans that must fire on the workload meant to stress them, and spans that
# must not fire at all
REQUIRED = {
    "sweep_auto": ("_waterfill.secrecy_waterfill", "weak_eavesdropper.solve_weak",
                   "weak_eavesdropper.threshold_power", "core.HermitianMatrix.eig",
                   "core.secrecy_rate", "common_rsv.detect_common_rsv",
                   "common_rsv.solve_common_rsv", "isotropic.solve_isotropic",
                   "isotropic.capacity_bounds_isotropic",
                   "omnidirectional.classify_omni", "cli.main", "cli.run_sweep"),
    "certify_grid": ("core.HermitianMatrix.eig", "core.secrecy_rate",
                     "common_rsv.detect_common_rsv", "certificates.zf_certify",
                     "certificates.wf_certify", "certificates.is_certify",
                     "cli.main"),
    "oracle_mc": ("oracle.mc_capacity", "cli.main"),
}
NEVER = {
    "sweep_auto": ("oracle.mc_capacity", "certificates.zf_certify",
                   "certificates.wf_certify", "certificates.is_certify"),
    "certify_grid": ("_waterfill.secrecy_waterfill", "oracle.mc_capacity"),
    "oracle_mc": (),
}


def _short(module: str) -> str:
    return module.removeprefix("wiretap_mimo.")


class Tracer:
    """Context manager that traces the package while it is active."""

    def __init__(self):
        import wiretap_mimo
        from wiretap_mimo import (_waterfill, certificates, cli, common_rsv, core,
                                  isotropic, omnidirectional, oracle,
                                  weak_eavesdropper)
        from wiretap_mimo.certificates import Verdict
        self._core = core
        self._modules = (wiretap_mimo, core, _waterfill, weak_eavesdropper,
                         isotropic, omnidirectional, common_rsv, certificates,
                         oracle, cli)
        self._convergence_error = core.ConvergenceError
        self._sufficient = Verdict.SUFFICIENT_HOLDS
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outcome = array("b")
        self.eigh = array("q")        # eigh calls inside the span, inclusive
        self.evals = array("q")       # secrecy_mode_powers calls, inclusive
        self.counts: dict[str, int] = {}
        self.eigh_total = 0
        self.evals_total = 0
        self.current_op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.outcome.append(RETURNED)
        self.eigh.append(self.eigh_total)
        self.evals.append(self.evals_total)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, outcome: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self.outcome[idx] = outcome
        self.eigh[idx] = self.eigh_total - self.eigh[idx]
        self.evals[idx] = self.evals_total - self.evals[idx]

    def _span(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        convergence_error = self._convergence_error
        sufficient = self._sufficient
        certify = name.startswith("certificates.") and name.endswith("_certify")

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except convergence_error:
                self._close(idx, CONVERGENCE_ERROR)
                raise
            except BaseException:
                self._close(idx, OTHER_ERROR)
                raise
            self._close(idx, POSITIVE if certify and result.verdict is sufficient
                        else RETURNED)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        if name == "_waterfill.secrecy_mode_powers":
            def wrapper(*args, **kwargs):
                self.evals_total += 1
                return fn(*args, **kwargs)
        elif name.startswith("numpy.linalg."):
            def wrapper(*args, **kwargs):
                self.eigh_total += 1
                return fn(*args, **kwargs)
        else:
            self.counts[name] = 0
            counts = self.counts

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # ------------------------------------------------------------- binding
    def __enter__(self) -> "Tracer":
        try:
            self._bind()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _bind(self) -> None:
        wrappers: dict[int, object] = {}
        for module in self._modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("wiretap_mimo")):
                    continue
                if id(obj) not in wrappers:
                    name = f"{_short(obj.__module__)}.{obj.__qualname__}"
                    wrappers[id(obj)] = (self._counted(obj, name) if name in COUNTED
                                         else self._span(obj, name))
                self._rebind(module, attr, wrappers[id(obj)])
        for cls_name, attr in _METHODS:
            cls = getattr(self._core, cls_name)
            raw = cls.__dict__[attr]
            name = f"core.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._rebind(cls, attr, classmethod(self._span(raw.__func__, name)))
            else:
                self._rebind(cls, attr, self._span(raw, name))
        for attr in ("eigh", "eigvalsh"):
            self._rebind(np.linalg, attr, self._counted(
                getattr(np.linalg, attr), f"numpy.linalg.{attr}"))

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- output
    def write(self, path: str) -> None:
        """Every span as one tab-separated line, times in microseconds from
        the first span's start."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart_us\tdur_us\toutcome\t"
                     "eigh_incl\tevals_incl\n")
            for i in range(len(self.name_id)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{self.names[self.name_id[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.3f}\t"
                         f"{(self.end[i] - self.start[i]) * 1e6:.3f}\t"
                         f"{self.outcome[i]}\t{self.eigh[i]}\t{self.evals[i]}\n")

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, inclusive eigh and
        secrecy_mode_powers counts, eigh calls made while the span was the
        innermost one open (``eigh_self``), and calls per outcome."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outcome = np.frombuffer(self.outcome, dtype=np.int8)
        eigh = np.frombuffer(self.eigh, dtype=np.int64)
        evals = np.frombuffer(self.evals, dtype=np.int64)
        nested = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[nested], dur[nested])
        child_eigh = np.zeros_like(eigh)
        np.add.at(child_eigh, parent[nested], eigh[nested])
        out = {}
        for nid, name in enumerate(self.names):
            sel = name_id == nid
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "total_s": float(np.sum(dur[sel])),
                "self_s": float(np.sum(dur[sel] - child[sel])),
                "eigh": int(np.sum(eigh[sel])),
                "eigh_self": int(np.sum(eigh[sel] - child_eigh[sel])),
                "evals": int(np.sum(evals[sel])),
                "positive": int(np.count_nonzero(outcome[sel] == POSITIVE)),
                "convergence_errors": int(np.count_nonzero(
                    outcome[sel] == CONVERGENCE_ERROR)),
                "other_errors": int(np.count_nonzero(outcome[sel] == OTHER_ERROR)),
            }
        return out


def coverage(workload: str, summary: dict[str, dict]) -> list[str]:
    """Problems with span coverage on this workload; empty when it holds."""
    problems = [f"{n} never fired" for n in REQUIRED[workload]
                if summary.get(n, {}).get("calls", 0) == 0]
    problems += [f"{n} fired {summary[n]['calls']} times"
                 for n in NEVER[workload] if summary.get(n, {}).get("calls", 0)]
    return problems


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(summary: dict[str, dict], points: int, ops: int,
                  eigh_total: int, samples_per_call: int) -> dict[str, tuple]:
    """Per-layer metrics of one traced pass as {name: (value, unit)}.

    ``points`` is the number of requested points of the pass, ``ops`` its
    op count.  Per-point values are per requested point.
    """
    def s(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "eigh": 0, "evals": 0, "positive": 0,
                                  "convergence_errors": 0, "other_errors": 0})

    wf = s("_waterfill.secrecy_waterfill")
    weak = s("weak_eavesdropper.solve_weak")
    eig = s("core.HermitianMatrix.eig")
    build = [s("core.ChannelPair.from_gram"), s("core.ChannelPair.from_channels")]
    rate = s("core.secrecy_rate")
    detect = s("common_rsv.detect_common_rsv")
    iso = s("isotropic.solve_isotropic")
    bounds_iso = s("isotropic.capacity_bounds_isotropic")
    certs = [s(f"certificates.{c}_certify") for c in ("zf", "wf", "is")]
    mc = s("oracle.mc_capacity")
    main = s("cli.main")
    ms = 1e3
    build_calls = sum(b["calls"] for b in build)
    cert_calls = sum(c["calls"] for c in certs)
    metrics = {
        "waterfill.secrecy_waterfill.calls": (wf["calls"], "count"),
        "waterfill.secrecy_waterfill.evals_per_call":
            (_ratio(wf["evals"], wf["calls"]), "count/call"),
        "waterfill.secrecy_waterfill.self_ms": (wf["self_s"] * ms, "ms"),
        "waterfill.secrecy_waterfill.convergence_errors":
            (wf["convergence_errors"], "count"),
        "weak_eavesdropper.solve_weak.calls_per_point":
            (_ratio(weak["calls"], points), "count/point"),
        "weak_eavesdropper.solve_weak.eigh_per_call":
            (_ratio(weak["eigh"], weak["calls"]), "count/call"),
        "weak_eavesdropper.solve_weak.self_ms_per_call":
            (_ratio(weak["self_s"] * ms, weak["calls"]), "ms/call"),
        "weak_eavesdropper.solve_weak.convergence_errors":
            (weak["convergence_errors"], "count"),
        "weak_eavesdropper.threshold_power.calls_per_point":
            (_ratio(s("weak_eavesdropper.threshold_power")["calls"], points),
             "count/point"),
        "core.eigh_calls_per_point": (_ratio(eigh_total, points), "count/point"),
        "core.HermitianMatrix.eig.calls_per_point":
            (_ratio(eig["calls"], points), "count/point"),
        "core.HermitianMatrix.eig.self_ms": (eig["self_s"] * ms, "ms"),
        "core.ChannelPair.build_us":
            (_ratio(sum(b["total_s"] for b in build) * 1e6, build_calls), "us"),
        "core.secrecy_rate.calls_per_point":
            (_ratio(rate["calls"], points), "count/point"),
        "core.secrecy_rate.self_ms": (rate["self_s"] * ms, "ms"),
        "common_rsv.detect_common_rsv.calls_per_point":
            (_ratio(detect["calls"], points), "count/point"),
        "common_rsv.detect_common_rsv.hit_ratio":
            (_ratio(detect["calls"] - detect["other_errors"]
                    - detect["convergence_errors"], detect["calls"]), "frac"),
        "common_rsv.detect_common_rsv.self_ms_per_call":
            (_ratio(detect["self_s"] * ms, detect["calls"]), "ms/call"),
        "common_rsv.solve_common_rsv.self_ms_per_call":
            (_ratio(s("common_rsv.solve_common_rsv")["self_s"] * ms,
                    s("common_rsv.solve_common_rsv")["calls"]), "ms/call"),
        "isotropic.solve_isotropic.calls_per_point":
            (_ratio(iso["calls"], points), "count/point"),
        "isotropic.solve_isotropic.self_ms_per_call":
            (_ratio(iso["self_s"] * ms, iso["calls"]), "ms/call"),
        "isotropic.capacity_bounds_isotropic.ms_per_call":
            (_ratio(bounds_iso["total_s"] * ms, bounds_iso["calls"]), "ms/call"),
        "omnidirectional.classify_omni.calls_per_point":
            (_ratio(s("omnidirectional.classify_omni")["calls"], points),
             "count/point"),
        "omnidirectional.solve_omni.calls":
            (s("omnidirectional.solve_omni")["calls"], "count"),
        "certificates.sufficient_ratio":
            (_ratio(sum(c["positive"] for c in certs), cert_calls), "frac"),
        "oracle.mc_capacity.self_ms_per_ksample":
            (_ratio(mc["self_s"] * ms, mc["calls"] * samples_per_call / 1e3),
             "ms/ksample"),
        "oracle.mc_capacity.child_ms_per_call":
            (_ratio((mc["total_s"] - mc["self_s"]) * ms, mc["calls"]), "ms/call"),
        "cli.main.self_ms_per_op": (_ratio(main["self_s"] * ms, ops), "ms/op"),
        "cli.run_sweep.ms_per_point":
            (_ratio(s("cli.run_sweep")["total_s"] * ms, points), "ms/point"),
    }
    for c, rep in zip(("zf", "wf", "is"), certs):
        metrics[f"certificates.{c}_certify.self_ms_per_call"] = (
            _ratio(rep["self_s"] * ms, rep["calls"]), "ms/call")
    return metrics

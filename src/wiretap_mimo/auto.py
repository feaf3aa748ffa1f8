"""Solver choice by channel structure, made once per pair: the exact closed
form where the channel has one, else the weak solution and both sandwiches."""

from __future__ import annotations

from typing import Union

from . import common_rsv, isotropic, omnidirectional, weak_eavesdropper
from .core import CapacityBounds, ChannelPair, SolveResult


def solve_auto(pair: ChannelPair, p_total: float
               ) -> list[tuple[str, Union[SolveResult, CapacityBounds]]]:
    """``(solver, outcome)`` pairs at one power, by preference:

    * ``rsv`` when W1 and W2 share an eigenbasis (exact);
    * ``omni`` when W2 is omnidirectional with range(W1) in its span (exact);
    * else ``weak``, with its sandwich in ``bounds``, then ``isotropic``, the
      isotropic sandwich (left out when W2 = 0).
    """
    try:
        channel = pair.common_basis()
    except common_rsv.NotCommutingError:
        pass
    else:
        return [("rsv", common_rsv.solve_common_rsv(channel, p_total))]
    cls, containment = pair.omni()
    if cls.is_omni and containment <= omnidirectional.CONTAINMENT_TOL:
        return [("omni", omnidirectional.solve_omni(pair, p_total))]
    out = [("weak", weak_eavesdropper.solve_weak_with_bounds(pair, p_total))]
    try:
        out.append(("isotropic",
                    isotropic.capacity_bounds_isotropic(pair, p_total)))
    except ValueError:
        pass  # W2 = 0: the weak result already is the exact solution
    return out

"""Solver choice by channel structure, made once per pair: the exact closed
form where the channel has one, else the weak solution and both sandwiches."""

from __future__ import annotations

from typing import Union

import numpy as np

from . import common_rsv, isotropic, omnidirectional, weak_eavesdropper
from .core import CapacityBounds, ChannelPair, SolveResult, over_powers


@over_powers
def solve_auto(pair: ChannelPair, p_total: np.ndarray
               ) -> list[list[tuple[str, Union[SolveResult, CapacityBounds]]]]:
    """``(solver, outcome)`` pairs at each power, by preference:

    * ``rsv`` when W1 and W2 share an eigenbasis (exact);
    * ``omni`` when W2 is omnidirectional with range(W1) in its span (exact);
    * else ``weak``, with its sandwich in ``bounds``, then ``isotropic``, the
      isotropic sandwich (W2 = 0 commutes, so it never gets here).

    Each solver runs once over the whole grid.
    """
    try:
        channel = pair.common_basis()
    except common_rsv.NotCommutingError:
        pass
    else:
        return [[("rsv", res)]
                for res in common_rsv.solve_common_rsv(channel, p_total)]
    if pair.omni().is_omni and pair.range_contained():
        return [[("omni", res)]
                for res in omnidirectional.solve_omni(pair, p_total)]
    return [[("weak", res), ("isotropic", bounds)] for res, bounds in zip(
        weak_eavesdropper.solve_weak_with_bounds(pair, p_total),
        isotropic.capacity_bounds_isotropic(pair, p_total))]

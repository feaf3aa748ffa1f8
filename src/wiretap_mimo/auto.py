"""Solver choice by channel structure, made once per pair: the exact closed
form where the channel has one, else the weak solution and both sandwiches."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import common_rsv, isotropic, omnidirectional, weak_eavesdropper
from .core import ChannelPair, _Grid, over_powers


@dataclass(frozen=True)
class AutoGrid(_Grid):
    """:func:`solve_auto` over a power grid: ``columns`` holds each solver's
    name and its grid of outcomes; item i is point i's ``(solver, outcome)``
    pairs, built on demand."""

    columns: list[tuple[str, Sequence]]

    def __len__(self) -> int:
        return len(self.columns[0][1])

    def _point(self, i: int) -> list[tuple]:
        return [(name, outs[i]) for name, outs in self.columns]


@over_powers
def solve_auto(pair: ChannelPair, p_total: np.ndarray) -> AutoGrid:
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
        return AutoGrid([("rsv", common_rsv.solve_common_rsv(channel, p_total))])
    if pair.omni().is_omni and pair.range_contained():
        return AutoGrid([("omni", omnidirectional.solve_omni(pair, p_total))])
    return AutoGrid([("weak", weak_eavesdropper.solve_weak_with_bounds(pair, p_total)),
                     ("isotropic", isotropic.capacity_bounds_isotropic(pair, p_total))])

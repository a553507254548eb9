"""Named parameter presets for the bundled model-comparison sweeps.

All four start from the hidden-Markov base a = 0.90, b = -0.20 and perturb
the cross covariances: fig2/fig3 move e to a*b - 0.4; fig4/fig5 additionally
move d to a*b - 0.2.  fig2/fig4 sweep the number of observations at k = 0
(filtering); fig3/fig5 sweep the horizon k at n in {1, 5, 10}.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import PmmParams, hmm_params

__all__ = ["SweepPreset", "PRESET_NAMES", "get_preset"]

BASE_A = 0.90
BASE_B = -0.20


class SweepPreset(NamedTuple):
    name: str
    true_params: PmmParams
    hmm_reference: PmmParams
    n_values: tuple[int, ...]
    k_values: tuple[int, ...]


def _build() -> dict[str, SweepPreset]:
    hmm = hmm_params(BASE_A, BASE_B)
    batch1 = hmm._replace(e=hmm.e - 0.4)
    batch2 = hmm._replace(d=hmm.d - 0.2, e=hmm.e - 0.4)
    n_filter = tuple(range(1, 101))
    n_filter_long = tuple(range(1, 201))
    k_sweep = tuple(range(1, 101))
    return {
        "fig2": SweepPreset("fig2", batch1, hmm, n_filter, (0,)),
        "fig3": SweepPreset("fig3", batch1, hmm, (1, 5, 10), k_sweep),
        "fig4": SweepPreset("fig4", batch2, hmm, n_filter_long, (0,)),
        "fig5": SweepPreset("fig5", batch2, hmm, (1, 5, 10), k_sweep),
    }


_PRESETS = _build()
PRESET_NAMES = tuple(_PRESETS)


def get_preset(name: str) -> SweepPreset:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None

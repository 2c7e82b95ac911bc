"""Resource-block and subcarrier grids over a shared 2.4 GHz channel.

The LTE downlink is organized in 180 kHz reduced resource blocks, the WiFi
OFDM channel in 312.5 kHz subcarriers.  Both grids are evenly spaced and
symmetric about their center frequency.  All frequencies are integer hertz
so nearest-neighbour lookups have exact, reproducible tie behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_CENTER_HZ = 2_412_000_000

# distinct grid pairs whose cross-grid maps are kept
MAP_CACHE_SIZE = 32


def _grid_centers(center_hz: int, n: int, bw_hz: int) -> np.ndarray:
    # center of slot i is center + (2i - (n-1)) * bw/2, exact in integers
    return center_hz + (2 * np.arange(n, dtype=np.int64) - (n - 1)) * bw_hz // 2


def _check_grid(center_hz: int, n: int, bw_hz: int) -> None:
    if n < 1:
        raise ValueError("grid needs at least one slot")
    if bw_hz <= 0:
        raise ValueError("slot bandwidth must be positive")
    if bw_hz % 2:
        raise ValueError("slot bandwidth must be an even number of hertz")
    if center_hz <= 0:
        raise ValueError("center frequency must be positive")


@dataclass(frozen=True)
class LteGrid:
    """Downlink grid: 100 blocks of 180 kHz occupy a 20 MHz carrier."""

    center_freq_hz: int = DEFAULT_CENTER_HZ
    n_rrb: int = 100
    rrb_bandwidth_hz: int = 180_000

    def __post_init__(self) -> None:
        _check_grid(self.center_freq_hz, self.n_rrb, self.rrb_bandwidth_hz)

    def span_hz(self) -> tuple[int, int]:
        half = self.n_rrb * self.rrb_bandwidth_hz // 2
        return self.center_freq_hz - half, self.center_freq_hz + half


@dataclass(frozen=True)
class WifiGrid:
    """OFDM grid: 64 subcarriers of 312.5 kHz across the same 20 MHz.

    ``excluded`` lists subcarrier indices (guard or DC bins) to skip when
    building cross-grid maps; by default every bin participates.
    """

    center_freq_hz: int = DEFAULT_CENTER_HZ
    n_sc: int = 64
    sc_bandwidth_hz: int = 312_500
    excluded: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_grid(self.center_freq_hz, self.n_sc, self.sc_bandwidth_hz)
        for s in self.excluded:
            if not 0 <= s < self.n_sc:
                raise ValueError(f"excluded subcarrier {s} out of range")
        if len(set(self.excluded)) >= self.n_sc:
            raise ValueError("cannot exclude every subcarrier")

    def span_hz(self) -> tuple[int, int]:
        half = self.n_sc * self.sc_bandwidth_hz // 2
        return self.center_freq_hz - half, self.center_freq_hz + half


@dataclass(frozen=True)
class RbScMap:
    """Per resource block, the index of the nearest usable subcarrier."""

    rb_to_sc: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b < a for a, b in zip(self.rb_to_sc, self.rb_to_sc[1:])):
            raise ValueError("rb_to_sc must be monotone non-decreasing")

    def __getitem__(self, r: int) -> int:
        return self.rb_to_sc[r]

    def __len__(self) -> int:
        return len(self.rb_to_sc)


def _require_overlap(lte: LteGrid, wifi: WifiGrid) -> None:
    lo_a, hi_a = lte.span_hz()
    lo_b, hi_b = wifi.span_hz()
    if hi_a <= lo_b or hi_b <= lo_a:
        raise ValueError("grids do not overlap in frequency")


def _nearest(targets: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Per target, the index of the nearest center; ties go to the lower index."""
    # argmin returns the first of equal distances, all exact integers
    return np.argmin(np.abs(targets[:, None] - centers[None, :]), axis=1)


@lru_cache(maxsize=MAP_CACHE_SIZE)
def build_rb_sc_map(lte: LteGrid, wifi: WifiGrid) -> RbScMap:
    """Map every resource block to its nearest subcarrier center.

    Distance ties break toward the lower subcarrier index.  Excluded
    subcarriers never appear in the map.  The map is cached per grid pair,
    so equal grids share one immutable map.
    """
    _require_overlap(lte, wifi)
    excluded = set(wifi.excluded)
    usable = np.array([s for s in range(wifi.n_sc) if s not in excluded])
    rb_freqs = _grid_centers(lte.center_freq_hz, lte.n_rrb, lte.rrb_bandwidth_hz)
    sc_freqs = _grid_centers(wifi.center_freq_hz, wifi.n_sc, wifi.sc_bandwidth_hz)
    nearest = usable[_nearest(rb_freqs, sc_freqs[usable])]
    return RbScMap(tuple(int(s) for s in nearest))


@lru_cache(maxsize=MAP_CACHE_SIZE)
def build_sc_rb_map(lte: LteGrid, wifi: WifiGrid) -> tuple[int, ...]:
    """Inverse lookup used on the receive side: nearest block per subcarrier.

    Cached per grid pair like :func:`build_rb_sc_map`.
    """
    _require_overlap(lte, wifi)
    sc_freqs = _grid_centers(wifi.center_freq_hz, wifi.n_sc, wifi.sc_bandwidth_hz)
    rb_freqs = _grid_centers(lte.center_freq_hz, lte.n_rrb, lte.rrb_bandwidth_hz)
    return tuple(int(r) for r in _nearest(sc_freqs, rb_freqs))

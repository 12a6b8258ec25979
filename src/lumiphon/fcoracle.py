"""Brute-force displaced-oscillator ladder for small mode counts.

Under the equal-mode approximation every vibrational overlap squared is a
product of Poisson factors exp(-S_k) S_k^m / m!, so for a handful of modes
the sideband can be enumerated line by line.  This is deliberately
independent of the generating-function route and exists to validate it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapTooSmallWarning, InputError
from .model import MAX_OUTPUT_POINTS, HRDecomposition

MAX_MODES = 8
MAX_CAP = 24
#: Candidate lines one mode's expansion may hold: the lines so far times
#: the mode's admissible quanta, about 17 bytes of scratch each.
MAX_LINES = 2**22
#: Line-point pairs one broadening may sum (lines times padded points),
#: about 20 s of work.
MAX_LINE_POINTS = 2**33
#: Padded points one broadening may build: the largest output grid, twice.
MAX_PADDED_POINTS = 2 * MAX_OUTPUT_POINTS

#: Quanta vectors whose partial weight falls below this are pruned.
PRUNE_WEIGHT = 1e-16


@dataclass(frozen=True, eq=False)
class FCLadder:
    """Enumerated emission lines: quanta vectors, weights, phonon energies.

    quanta holds one uint8 row per line (the cap is at most MAX_CAP = 24)
    and one column per coupled mode, in the order of hr's modes.  Its one
    maker, enumerate_fc, builds fresh arrays and sets the tail so that
    weights + tail = 1; nothing is re-checked or copied here.
    """

    quanta: np.ndarray  # (L, M) uint8
    weights: np.ndarray  # (L,)
    energies_mev: np.ndarray  # (L,) energy released to phonons
    tail: float  # 1 - sum(weights), never renormalized away

    @property
    def nlines(self):
        return self.weights.shape[0]


def enumerate_fc(hr: HRDecomposition, cap: int) -> FCLadder:
    """Enumerate all quanta vectors with total quanta <= cap.

    Modes with S_k = 0 contribute only the zero-quanta factor and are
    dropped from the vectors.  The ladder grows mode by mode from the
    single zero-quanta line: every line is crossed with the quanta q <= cap
    of the next mode in ascending order, and a candidate is kept when its
    weight (the product of Poisson factors exp(-S) S^q / q!, multiplied
    in mode order) is at least PRUNE_WEIGHT and its total quanta at most
    cap.  Lines therefore come in lexicographic order of their uint8 quanta
    vectors, with energies summed in mode order.  A mode whose candidates
    would exceed MAX_LINES raises InputError before they are built, and so
    does a ladder that keeps no line.  The pruned and capped mass is
    reported as the tail, and a warning is emitted when it exceeds 1e-6.
    hr's mode energies are non-negative, as io.parse_hr reads them and
    vibronic.partial_hr computes them.
    """
    if cap < 0 or cap > MAX_CAP:
        raise InputError(f"cap {cap} (--max-quanta) must be in 0..{MAX_CAP}")
    live = hr.sk > 0.0
    omegas = hr.omegas_mev[live]
    sks = hr.sk[live]
    m = omegas.size
    if m > MAX_MODES:
        raise InputError(f"{m} coupled modes exceed the enumeration limit {MAX_MODES}")

    quanta = np.zeros((1, 0), dtype=np.uint8)
    weights, energies = np.ones(1), np.zeros(1)
    for k, (s, omega) in enumerate(zip(sks, omegas)):
        # S^q overflows only past S = 1e12, where e^-S is 0 already: the
        # NaN factor of 0 * inf is pruned below, like any other below 1e-16
        with np.errstate(over="ignore", invalid="ignore"):
            pois = np.array(
                [math.exp(-s) * s**q / math.factorial(q) for q in range(cap + 1)]
            )
        # weights never exceed 1, so a factor below PRUNE_WEIGHT prunes every line
        qs = np.flatnonzero(pois >= PRUNE_WEIGHT).astype(np.uint8)
        if weights.size * qs.size > MAX_LINES:
            raise InputError(
                f"mode {k + 1} of {m} would expand {weights.size} lines into "
                f"{weights.size * qs.size} candidates, above the limit of "
                f"{MAX_LINES}; lower --max-quanta"
            )
        cand = np.multiply.outer(weights, pois[qs])
        used = quanta.sum(axis=1, dtype=np.uint8)
        keep = (cand >= PRUNE_WEIGHT) & (np.add.outer(used, qs) <= cap)
        weights = cand[keep]
        del cand
        counts = keep.sum(axis=1)
        q = np.broadcast_to(qs, keep.shape)[keep]
        # a line past the float range lies at -inf eV, outside every window,
        # where broadened_oracle_spectrum refuses it
        with np.errstate(over="ignore"):
            energies = np.repeat(energies, counts) + q * omega
        quanta = np.column_stack([np.repeat(quanta, counts, axis=0), q])

    if weights.size == 0:
        raise InputError(
            f"no line of at most {cap} quanta (--max-quanta) weighs {PRUNE_WEIGHT:g} "
            f"or more at total S = {hr.total:.6g}: the ladder keeps no line"
        )
    tail = max(1.0 - math.fsum(weights.tolist()), 0.0)
    if tail > 1e-6:
        warnings.warn(
            f"enumeration cap {cap} leaves tail mass {tail:.3e}",
            CapTooSmallWarning,
            stacklevel=2,
        )
    return FCLadder(quanta, weights, energies, tail)


def broadened_oracle_spectrum(
    ladder: FCLadder,
    gamma_mev: float,
    grid_ev,
    zpl_ev: float,
    sigma_mev: float = 0.0,
) -> np.ndarray:
    """Sum a Lorentzian of half-width gamma over every enumerated line:
    the intensity per eV on grid_ev.

    With sigma > 0 each line is additionally convolved with a Gaussian of
    width sigma * sqrt(total quanta), matching the smearing the
    generating-function route applies to the spectral density, so the two
    routes become comparable profile by profile.  The ladder's tail mass
    is never folded back in.  grid_ev is an output grid that
    vibronic.energy_grid built and checked, its step against gamma too, and
    vibronic.resolve_window checked gamma.  The padded points must not
    exceed MAX_PADDED_POINTS, nor the summed lines times them
    MAX_LINE_POINTS (InputError, raised before any scratch is allocated).

    Lines are summed in row chunks of 4e6 // (padded points) lines, one
    column tile of 2^20 // chunk points at a time, in one scratch buffer
    of at most 2^20 float64 (8 MB) reused throughout.  The chunk fixes
    which lines each point sums and in what order, so the result is
    bit-identical to evaluating each whole chunk as one expression, which
    allocated two fresh 4e6-element (32 MB) arrays per chunk.
    """
    grid = np.asarray(grid_ev, dtype=float)
    # the whole grid's step, as TimeGrid.dt: one printed difference may be off in digit 9
    step_ev = float((grid[-1] - grid[0]) / (grid.size - 1))
    gamma_ev = gamma_mev / 1000.0
    lines_ev = zpl_ev - ladder.energies_mev / 1000.0
    # lines of appreciable weight must sit inside the grid by 10 gamma;
    # enumeration dust at the far red end may fall off the edge
    outside = (lines_ev < grid[0] + 10.0 * gamma_ev) | (
        lines_ev > grid[-1] - 10.0 * gamma_ev
    )
    lost = float(np.sum(ladder.weights[outside]))
    if lost > 1e-9:
        raise InputError(
            f"grid [{grid[0]:.4f}, {grid[-1]:.4f}] eV cuts off lines carrying "
            f"weight {lost:.3e} (need lines +- 10 gamma inside)"
        )

    totals = ladder.quanta.sum(axis=1)
    sigma_ev = sigma_mev / 1000.0
    pad_ev = 10.0 * gamma_ev + (
        8.0 * sigma_ev * math.sqrt(max(int(totals.max()), 1)) if sigma_mev > 0 else 0.0
    )
    npad = int(math.ceil(pad_ev / step_ev)) + 1
    npoints = grid.size + 2 * npad
    if npoints > MAX_PADDED_POINTS or ladder.nlines * npoints > MAX_LINE_POINTS:
        raise InputError(
            f"broadening {ladder.nlines} lines over {npoints} points exceeds the limit of "
            f"{MAX_PADDED_POINTS} points or {MAX_LINE_POINTS} line-points; lower --max-quanta "
            "or --gamma, narrow --window or raise --step"
        )
    span_ev = (npoints - 1) * step_ev  # the largest line-to-point distance
    if not 2.0 * span_ev * span_ev < math.inf:
        raise InputError(
            f"the padded grid spans {span_ev:.4g} eV, whose square passes the float "
            "range; lower --gamma or narrow --window"
        )
    padded = np.concatenate(
        [
            grid[0] - step_ev * np.arange(npad, 0, -1),
            grid,
            grid[-1] + step_ev * np.arange(1, npad + 1),
        ]
    )

    out = np.zeros(padded.size)
    # the row chunk fixes which lines each column sums, and in what order;
    # the column tile only bounds the scratch buffer, reused throughout
    chunk = max(1, 4_000_000 // padded.size)
    cols = max(1, 2**20 // chunk)
    buf = np.empty((chunk, cols))
    acc = np.empty(cols)
    for q in np.unique(totals):
        sel = totals == q
        heights = ladder.weights[sel, None] * (gamma_ev / math.pi)
        ens = lines_ev[sel, None]
        sub = np.zeros(padded.size)
        # a distance whose square passes the float range makes a term of 0;
        # the span check leaves that to lines off the grid, at most 1e-9 of
        # the weight
        with np.errstate(over="ignore"):
            for i in range(0, ens.shape[0], chunk):
                e, h = ens[i : i + chunk], heights[i : i + chunk]
                for j in range(0, padded.size, cols):
                    x = padded[j : j + cols]
                    b, a = buf[: e.shape[0], : x.size], acc[: x.size]
                    np.subtract(x, e, out=b)
                    np.square(b, out=b)
                    np.add(b, gamma_ev**2, out=b)
                    np.divide(h, b, out=b)
                    np.add.reduce(b, axis=0, out=a)
                    sub[j : j + cols] += a
        if sigma_ev > 0 and q > 0:  # a --sigma below 3e-321 meV is 0 eV: no smearing
            sg = sigma_ev * math.sqrt(float(q))
            nk = int(math.ceil(8.0 * sg / step_ev))
            with np.errstate(over="ignore"):  # a tap past the float range is 0
                kernel = np.exp(-0.5 * ((np.arange(-nk, nk + 1) * step_ev) / sg) ** 2)
            kernel /= kernel.sum()
            # linear convolution by a zero-padded real FFT; the kernel is
            # centred, so the same-size result starts nk samples in
            nfft = 1 << (sub.size + 2 * nk - 1).bit_length()
            full = np.fft.irfft(
                np.fft.rfft(sub, nfft) * np.fft.rfft(kernel, nfft), nfft
            )
            sub = full[nk : nk + sub.size]
        out += sub
    return out[npad : npad + grid.size]

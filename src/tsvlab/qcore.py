"""Finite-dimensional complex Hilbert-space primitives.

States (kets and bras), Hermitian operators,
spectral decomposition into eigenvector blocks, and
unitary time evolution under piecewise-constant Hamiltonian schedules
(hbar = 1 throughout).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    NotHermitianError,
    RangeError,
    TimeWindowError,
    ZeroStateError,
)

#: construction-time tolerance for state normalization
NORM_TOL = 1e-12
#: an operator is Hermitian if max|M - M^dagger| is at most this times max|M|
FLAG_TOL = 1e-10
#: adjacent eigenvalues at most this times the spectral radius apart are merged
DEGENERACY_TOL = 1e-9
#: a time within this fraction of a schedule's total duration of a segment boundary falls on it
TIME_TOL = 1e-12
#: np.mean of a merged block of n levels with n * max|level| below this cannot overflow
_MEAN_LIMIT = 2.0**1023
#: plain state norms in this range are computed without over- or underflow
_SAFE_NORMS = (2.0**-450, 2.0**450)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.flags.writeable = False


def _unit_scaled(values: np.ndarray) -> tuple:
    """``(values * 2**-e, e)`` for complex ``values``, with e putting the largest real or imaginary part in [0.5, 1)."""
    parts = values.view(np.float64)
    e = math.frexp(np.abs(parts).max())[1]
    return np.ldexp(parts, -e).view(complex), e


@np.errstate(over="ignore")  # an overflowing norm takes the rescaled path below
def _normalized_amplitudes(amplitudes) -> np.ndarray:
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
    if vec.size == 0:
        raise DimensionError("state needs at least one amplitude")
    norm = np.linalg.norm(vec)
    if not _SAFE_NORMS[0] <= norm <= _SAFE_NORMS[1]:
        # the sum of squares may have over- or underflowed: rescale it first
        vec, _ = _unit_scaled(vec)
        norm = np.linalg.norm(vec)
    if not np.isfinite(norm) or norm == 0.0:
        raise ZeroStateError("state norm must be finite and positive")
    # skip the division for already-normalized input so that round-tripping
    # a stored state reproduces its amplitudes bit-exactly
    if abs(norm - 1.0) > NORM_TOL:
        vec /= norm
    vec.flags.writeable = False
    return vec


@dataclass(frozen=True, eq=False)
class Ket:
    """Forward-evolving state |psi>, stored normalized to unit norm.

    Amplitudes are normalized at construction; the input's global scale is
    discarded (it carries no physics), while any global phase is kept.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _normalized_amplitudes(self.amplitudes))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class Bra:
    """Backward-evolving state <phi|.

    Stores the components of the underlying ket; conjugation happens in the
    pairing, so ``overlap(Bra(v), Ket(w)) == vdot(v, w)``.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _normalized_amplitudes(self.amplitudes))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def overlap(bra: Bra, ket: Ket) -> complex:
    """Hermitian pairing <phi|psi>; conjugates the bra components."""
    if bra.dim != ket.dim:
        raise DimensionError(f"bra dim {bra.dim} != ket dim {ket.dim}")
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))


@dataclass(frozen=True, eq=False)
class Operator:
    """Hermitian square matrix on the Hilbert space, with its spectral decomposition computed on first read.

    Construction raises ``NotHermitianError`` unless the max-abs deviation
    ``max|M - M^dagger|`` is at most ``FLAG_TOL * max|M|``, so the verdict
    does not depend on the unit of M.

    ``eigenvalues`` are sorted ascending with adjacent values at most
    ``DEGENERACY_TOL`` times the spectral radius (or ``_scale``, if given)
    apart merged (the merged value is their ``np.mean``).
    The i-th merged eigenspace is spanned by the orthonormal columns
    ``eigenvectors[:, block_starts[i]:block_starts[i + 1]]`` (the last block
    runs to the final column). The three are computed together, from the
    cached ``eigh``, the first time any of them is read, so a caller that
    needs only ``matrix`` (a weak value) never decomposes.

    Raises
    ------
    RangeError
        When the spectrum is first read, if an eigenvalue overflows float64.
    """

    matrix: np.ndarray
    #: the scale the merge tolerance is relative to, if not the spectral radius
    _scale: float | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DimensionError(f"operator matrix must be square and non-empty, got shape {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        # halved, so the difference cannot overflow: for normal floats the verdict is
        # that of max|M - M^dagger| <= FLAG_TOL * max|M|, since halving is exact
        half = m * 0.5
        deviation = np.abs(half - half.conj().T).max()
        # max|M| is read only for a nonzero deviation; an infinite max|M| never passes
        if not (deviation == 0.0 or deviation <= FLAG_TOL * np.abs(m).max() / 2.0 < math.inf):
            raise NotHermitianError("matrix is not Hermitian")

    @cached_property
    def eigh(self) -> tuple:
        """``np.linalg.eigh`` of the operator, computed on first access.

        Returns read-only ``(w, V)``: eigenvalues ascending and the unitary
        whose columns are the matching eigenvectors.
        """
        w, v = np.linalg.eigh(self.matrix)
        w.flags.writeable = False
        v.flags.writeable = False
        return w, v

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def op(self) -> Operator:
        """The operator itself; bench/workloads.py reads ``spectral_decompose(...).op``."""
        return self

    @cached_property
    def _spectrum(self) -> tuple:
        w, v = self.eigh
        wl = w.tolist()
        tol = DEGENERACY_TOL * (max(-wl[0], wl[-1]) if self._scale is None else self._scale)
        starts = [0] + [i for i in range(1, len(wl)) if wl[i] - wl[i - 1] > tol]
        bounds = (*starts, len(wl))
        # the mean of one nonzero level is that level on any numpy; a zero level
        # still goes to np.mean, which decides the sign of zero. A block whose
        # sum could pass float64 is not summed: it reads as inf, rejected below
        eigenvalues = tuple(
            wl[a] if b - a == 1 and wl[a]
            else float(np.mean(w[a:b])) if max(-wl[a], wl[b - 1]) * (b - a) < _MEAN_LIMIT
            else math.inf
            for a, b in zip(bounds[:-1], bounds[1:])
        )
        if not all(map(math.isfinite, eigenvalues)):
            raise RangeError("eigenvalues of this observable overflow float64")
        block_starts = np.array(starts)
        block_starts.flags.writeable = False
        return eigenvalues, v, block_starts

    @property
    def eigenvalues(self) -> tuple:
        return self._spectrum[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._spectrum[1]

    @property
    def block_starts(self) -> np.ndarray:
        return self._spectrum[2]

    @cached_property
    def projectors(self) -> "_Projectors":
        """Dense eigenspace projectors ``V_n V_n^dagger`` as Operators, ascending.

        A read-only sequence whose n-th projector is built when first indexed,
        for callers that want a projector as an operator (a weak value of
        ``P_n``, :func:`~tsvlab.tsv.two_time_joint`).
        """
        return _Projectors(self)

    @property
    def max_abs_eigenvalue(self) -> float:
        return max(abs(e) for e in self.eigenvalues)

    def amplitudes(self, bra: Bra, ket: Ket) -> np.ndarray:
        """``<phi|P_n|psi>`` for every merged eigenspace n, in eigenvalue order."""
        vh = self.eigenvectors.conj().T
        return np.add.reduceat(np.conj(vh @ bra.amplitudes) * (vh @ ket.amplitudes), self.block_starts)

    def project(self, ket: Ket) -> np.ndarray:
        """Projected states ``P_n |psi> = V_n (V_n^dagger psi)``, one column per eigenspace."""
        v = self.eigenvectors
        return np.add.reduceat(v * (v.conj().T @ ket.amplitudes), self.block_starts, axis=1)


class _Projectors(Sequence):
    """``Operator.projectors``: each eigenspace projector is built, then kept, on first access."""

    def __init__(self, obs: Operator):
        self._obs = obs
        self._built = {}

    def __len__(self) -> int:
        return len(self._obs.eigenvalues)

    def __getitem__(self, n):
        n = range(len(self))[n]  # a negative index counts from the end; past the end raises IndexError
        if n not in self._built:
            v = self._obs.eigenvectors
            bounds = (*self._obs.block_starts.tolist(), v.shape[1])
            block = v[:, bounds[n]:bounds[n + 1]]
            proj = block @ block.conj().T
            self._built[n] = Operator((proj + proj.conj().T) / 2.0)
        return self._built[n]


def spectral_decompose(op: Operator) -> Operator:
    """The operator itself, which decomposes on first read; bench/ still calls this name."""
    return op


@dataclass(frozen=True, eq=False)
class HamiltonianSchedule:
    """Piecewise-constant Hamiltonian over an ordered list of time segments.

    Each segment is ``(duration, H)`` with ``duration >= 0`` and Hermitian
    ``H``; the total duration is finite. Time ordering is realized as the
    ordered product of segment exponentials ``exp(-i H_k dt_k)``; hbar = 1.
    """

    segments: tuple

    def __post_init__(self):
        cleaned = []
        for i, (duration, h) in enumerate(self.segments):
            duration = float(duration)
            if not 0.0 <= duration < math.inf:
                raise ValueError(f"segment {i} duration must be finite and non-negative, got {duration}")
            cleaned.append((duration, h))
        if cleaned:
            dims = {h.dim for _, h in cleaned}
            if len(dims) != 1:
                raise DimensionError("all segment Hamiltonians must share one dimension")
        object.__setattr__(self, "segments", tuple(cleaned))
        if not math.isfinite(self.total_duration):
            raise RangeError("total duration overflows float64")

    @property
    def total_duration(self) -> float:
        return sum(d for d, _ in self.segments)

    @property
    def dim(self):
        return self.segments[0][1].dim if self.segments else None

    def split_at(self, t: float):
        """Split into schedules spanning [0, t] and [t, total_duration].

        A time within ``TIME_TOL * total_duration`` of a window end or a
        segment boundary falls on it, so the split does not depend on the time unit.

        Raises
        ------
        TimeWindowError
            If ``t`` lies outside the schedule's time window.
        """
        total = self.total_duration
        slack = TIME_TOL * total
        # t - total, not total + slack, which overflows near the float64 maximum
        if not (-slack <= t and t - total <= slack):
            raise TimeWindowError(f"time {t} outside schedule window [0, {total}]")
        t = min(max(t, 0.0), total)
        before = []
        after = []
        elapsed = 0.0
        for duration, h in self.segments:
            seg_end = elapsed + duration
            if seg_end <= t + slack:
                before.append((duration, h))
            elif elapsed >= t - slack:
                after.append((duration, h))
            else:
                before.append((t - elapsed, h))
                after.append((seg_end - t, h))
            elapsed = seg_end
        return HamiltonianSchedule(tuple(before)), HamiltonianSchedule(tuple(after))


def _propagate(h: Operator, duration: float, vec: np.ndarray, sign: float) -> np.ndarray:
    # exact for Hermitian generators: exp(-i sign H dt) = V exp(-i sign w dt) V^dagger
    w, v = h.eigh
    radius = max(-float(w[0]), float(w[-1]))
    if not math.isfinite(radius):
        raise RangeError("eigenvalues of a hamiltonian segment overflow float64")
    if not math.isfinite(duration * radius):
        raise RangeError(f"phase of exp(-i H t) overflows float64 over a segment of duration {duration}")
    return v @ (np.exp(-1j * sign * duration * w) * (v.conj().T @ vec))


def evolve_forward(state: Ket, schedule: HamiltonianSchedule) -> Ket:
    """Evolve a ket through the schedule, earliest segment applied first."""
    if schedule.dim is not None and schedule.dim != state.dim:
        raise DimensionError("schedule dimension does not match state")
    amps = state.amplitudes
    for duration, h in schedule.segments:
        amps = _propagate(h, duration, amps, 1.0)
    return Ket(amps)


def evolve_backward(bra: Bra, schedule: HamiltonianSchedule) -> Bra:
    """Evolve a bra back to the schedule's start time.

    Contract: the pairing is evolution invariant,
    ``overlap(evolve_backward(phi, S), psi) == overlap(phi, evolve_forward(psi, S))``
    for every ket ``psi``. Equivalently the stored components are acted on
    by the adjoints of the segment unitaries, latest segment first.
    """
    if schedule.dim is not None and schedule.dim != bra.dim:
        raise DimensionError("schedule dimension does not match state")
    comps = bra.amplitudes
    for duration, h in reversed(schedule.segments):
        comps = _propagate(h, duration, comps, -1.0)
    return Bra(comps)

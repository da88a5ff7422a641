"""Independent reference answers and the checks that compare tsvlab against them.

Nothing in this module imports tsvlab. Every answer is computed from the raw
numpy arrays the benchmark generated, along paths that share no code with
the package: eigenvector blocks from ``numpy.linalg.eigh`` instead of dense
projector operators, two sequential Born rules instead of the ABL formula,
a ``vdot`` ratio for weak values, eigh-based segment exponentials for time
evolution, and a closed-form Gaussian overlap for the pointer mean shift.

Each ``check_*`` function raises :class:`Mismatch` naming what disagreed.
"""

from __future__ import annotations

import json

import numpy as np

#: adjacent eigenvalues closer than this form one eigenspace (tsvlab's documented default)
DEGENERACY_TOL = 1e-9
#: an outcome with conditional probability >= 1 - this is certain (tsvlab's default)
CERTAINTY_TOL = 1e-10

PROB_TOL = 1e-9
VALUE_TOL = 1e-9


class Mismatch(Exception):
    """An output disagreed with the benchmark's own reference answer."""


# ---------------------------------------------------------------------------
# reference physics


def unit(vec) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    return vec / np.linalg.norm(vec)


def eigenspaces(matrix, tol: float = DEGENERACY_TOL) -> list:
    """``[(eigenvalue, V_block)]`` ascending; eigenvalues closer than ``tol`` merge."""
    w, v = np.linalg.eigh(np.asarray(matrix, dtype=complex))
    blocks = []
    start = 0
    for end in range(1, w.size + 1):
        if end == w.size or w[end] - w[end - 1] > tol:
            blocks.append((float(np.mean(w[start:end])), v[:, start:end]))
            start = end
    return blocks


def born_sequence(pre, post, blocks) -> list:
    """``[(eigenvalue, probability)]`` conditioned on the post-selection.

    First Born rule: outcome n with probability ``||V_n^H psi||^2``, state
    collapsing onto its eigenspace. Second: the post-selection succeeds from
    the collapsed state with probability ``|<phi|collapsed>|^2``. The joint
    weights are normalized over outcomes.
    """
    psi, phi = unit(pre), unit(post)
    weights = []
    for _, block in blocks:
        coords = block.conj().T @ psi
        p_outcome = float(np.vdot(coords, coords).real)
        if p_outcome == 0.0:
            weights.append(0.0)
            continue
        collapsed = block @ coords / np.sqrt(p_outcome)
        weights.append(p_outcome * abs(np.vdot(phi, collapsed)) ** 2)
    total = sum(weights)
    return [(value, w / total) for (value, _), w in zip(blocks, weights)]


def abl(pre, post, matrix) -> list:
    return born_sequence(pre, post, eigenspaces(matrix))


def abl_generalized(terms, matrix) -> list:
    """Generalized selection ``sum_i alpha_i <phi_i| |psi_i>`` via a joint system.

    The terms are realized as system (x) ancilla states
    ``Psi = sum_i psi_i |i>`` and ``Phi = sum_i conj(alpha_i) phi_i |i>``,
    so ``<Phi|P (x) 1|Psi> = sum_i alpha_i <phi_i|P|psi_i>``; the Born
    sequence then runs on the joint system with blocks ``V_n (x) 1``.
    """
    k = len(terms)
    pre = sum(np.kron(unit(fwd), np.eye(k)[i]) for i, (_, _, fwd) in enumerate(terms))
    post = sum(
        np.conj(alpha) * np.kron(unit(bwd), np.eye(k)[i])
        for i, (alpha, bwd, _) in enumerate(terms)
    )
    blocks = [(value, np.kron(block, np.eye(k))) for value, block in eigenspaces(matrix)]
    return born_sequence(pre, post, blocks)


def abl_joint(joint_pre, joint_post, matrix, ancilla_dim: int) -> list:
    """ABL for a system observable on a jointly selected system (x) ancilla pair."""
    blocks = [(v, np.kron(b, np.eye(ancilla_dim))) for v, b in eigenspaces(matrix)]
    return born_sequence(joint_pre, joint_post, blocks)


def segment_unitary(h, duration: float) -> np.ndarray:
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    return (v * np.exp(-1j * w * duration)) @ v.conj().T


def evolve_to(pre, post, segments, t: float):
    """Forward state at ``t`` and backward state pulled back from the end to ``t``."""
    psi, phi = unit(pre), unit(post)
    elapsed = 0.0
    for duration, h in segments:
        start, end = elapsed, elapsed + duration
        before = min(max(t - start, 0.0), duration)
        if before > 0.0:
            psi = segment_unitary(h, before) @ psi
        elapsed = end
    elapsed = 0.0
    later = []
    for duration, h in segments:
        start, end = elapsed, elapsed + duration
        after = min(max(end - t, 0.0), duration)
        if after > 0.0:
            later.append((after, h))
        elapsed = end
    for duration, h in reversed(later):
        phi = segment_unitary(h, duration).conj().T @ phi
    return psi, phi


def abl_at_time(pre, post, segments, t: float, matrix) -> list:
    psi, phi = evolve_to(pre, post, segments, t)
    return abl(psi, phi, matrix)


def weak_value(pre, post, matrix) -> complex:
    psi, phi = unit(pre), unit(post)
    return complex(np.vdot(phi, np.asarray(matrix) @ psi) / np.vdot(phi, psi))


def weak_value_generalized(terms, matrix) -> complex:
    m = np.asarray(matrix)
    num = sum(a * np.vdot(unit(b), m @ unit(f)) for a, b, f in terms)
    den = sum(a * np.vdot(unit(b), unit(f)) for a, b, f in terms)
    return complex(num / den)


def pointer_mean_shift(pre, post, matrix, coupling: float, sigma: float) -> float:
    """Exact mean of the post-selected Gaussian-pointer density.

    With amplitudes ``a_n = <phi|P_n|psi>`` and packets centred at
    ``c_n = g o_n``, the overlaps of two packets are
    ``exp(-(c_m - c_n)^2 / (8 sigma^2))`` and their first moment is that
    times ``(c_m + c_n) / 2``, so no position grid is involved.
    """
    psi, phi = unit(pre), unit(post)
    blocks = eigenspaces(matrix)
    amps = np.array([np.vdot(phi, b @ (b.conj().T @ psi)) for _, b in blocks])
    centers = coupling * np.array([v for v, _ in blocks])
    gauss = np.exp(-((centers[:, None] - centers[None, :]) ** 2) / (8.0 * sigma**2))
    cross = np.conj(amps)[:, None] * amps[None, :] * gauss
    mids = (centers[:, None] + centers[None, :]) / 2.0
    return float((cross * mids).sum().real / cross.sum().real)


def two_time_joint(kernel, a, b) -> float:
    k = np.asarray(kernel)
    return float(abs(np.vdot(unit(a), k @ unit(b))) ** 2 / np.sum(np.abs(k) ** 2))


# ---------------------------------------------------------------------------
# comparisons


def close(actual, expected, tol: float) -> bool:
    return abs(actual - expected) <= tol * max(1.0, abs(expected))


def compare_distribution(pairs, expected, what: str, prob_tol: float = PROB_TOL,
                         value_tol: float = VALUE_TOL) -> None:
    pairs = list(pairs)
    if len(pairs) != len(expected):
        raise Mismatch(f"{what}: {len(pairs)} outcomes, reference has {len(expected)}")
    for (o, p), (eo, ep) in zip(pairs, expected):
        if not close(o, eo, value_tol):
            raise Mismatch(f"{what}: outcome {o!r}, reference {eo!r}")
        if abs(p - ep) > prob_tol:
            raise Mismatch(f"{what}: probability of {eo:.6g} is {p!r}, reference {ep!r}")


def compare_value(actual, expected, what: str, tol: float = VALUE_TOL) -> None:
    if not close(actual, expected, tol):
        raise Mismatch(f"{what}: {actual!r}, reference {expected!r}")


def require_exit(code, expected: int = 0) -> None:
    if code != expected:
        raise Mismatch(f"exit code {code!r}, expected {expected}")


# ---------------------------------------------------------------------------
# checks of CLI output text


def parse_abl_table(text: str) -> list:
    pairs = []
    for line in text.strip().splitlines():
        outcome, prob = line.rsplit(":", 1)
        pairs.append((float(outcome), float(prob)))
    return pairs


def check_abl_output(text: str, fmt: str, expected: list) -> None:
    if fmt == "json":
        doc = json.loads(text)
        pairs = [(e["outcome"], e["probability"]) for e in doc["distribution"]]
        compare_distribution(pairs, expected, "abl json")
    else:
        # the table prints 12 significant digits
        compare_distribution(parse_abl_table(text), expected, "abl table",
                             prob_tol=1e-10, value_tol=1e-10)


def parse_complex_text(text: str) -> complex:
    re_part, sign, im_part = text.split()
    im = float(im_part.rstrip("i"))
    return complex(float(re_part), -im if sign == "-" else im)


def check_weak_output(text: str, fmt: str, expected: complex) -> None:
    if fmt == "json":
        re_part, im_part = json.loads(text)["weak_value"]
        value = complex(re_part, im_part)
    else:
        value = parse_complex_text(text.strip())
    compare_value(value, expected, f"weak value ({fmt})")


def check_verify_output(text: str, expected: list, samples: int, workers: int) -> int:
    """Check the printed ``abl`` column; returns the post-selected sample count."""
    lines = text.strip().splitlines()
    head = lines[0].replace(",", " ").replace("(", " ").replace(")", " ").split()
    # samples: N  post-selected: K  seed S  workers W
    total, kept, shown_workers = int(head[1]), int(head[3]), int(head[7])
    if total != samples or shown_workers != workers:
        raise Mismatch(f"verify header {lines[0]!r}: expected {samples} samples, {workers} workers")
    rows = [line.split() for line in lines[2:-1]]
    pairs = [(float(r[0]), float(r[1])) for r in rows]
    # outcomes print with 6 and probabilities with 8 significant digits
    compare_distribution(pairs, expected, "verify abl column", prob_tol=1e-8, value_tol=1e-5)
    if not lines[-1].startswith("result: PASS"):
        raise Mismatch(f"verify verdict {lines[-1]!r}")
    return kept


def read_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def check_pointer_output(text: str, positions, density, expected_shift: float,
                         expected_weak: complex | None, strong_expected: list | None,
                         scale: float) -> None:
    """Pointer CSV density integrates to 1 and its mean matches the reference.

    ``scale`` is the pointer's natural length (sigma + g max|o|); shifts are
    compared to ``1e-9`` of it. ``strong_expected`` is the reference ABL
    distribution when the run is in the strong regime.
    """
    mass = float(np.trapezoid(density, positions))
    if abs(mass - 1.0) > 1e-9:
        raise Mismatch(f"pointer CSV density integrates to {mass!r}")
    csv_shift = float(np.trapezoid(positions * density, positions))
    if abs(csv_shift - expected_shift) > 1e-9 * scale:
        raise Mismatch(f"pointer CSV mean shift {csv_shift!r}, reference {expected_shift!r}")
    fields = {}
    for line in text.splitlines():
        if " : " in line:
            key, value = line.split(" : ", 1)
            fields[key.strip()] = value.strip()
    printed_shift = float(fields["mean_shift"])
    if abs(printed_shift - expected_shift) > 1e-9 * scale:
        raise Mismatch(f"printed mean shift {printed_shift!r}, reference {expected_shift!r}")
    if expected_weak is not None:
        compare_value(float(fields["Re(weak value)"]), expected_weak.real, "pointer Re(weak value)")
    strong_lines = [line.split() for line in text.splitlines() if line.startswith("  outcome ")]
    if strong_expected is None:
        if strong_lines:
            raise Mismatch("pointer reported a strong regime for a weak coupling")
        return
    if not strong_lines:
        raise Mismatch("pointer did not report the strong regime")
    # "outcome O: mass M  abl A", both printed with 9 significant digits
    abl_pairs = [(float(r[1].rstrip(":")), float(r[5])) for r in strong_lines]
    mass_pairs = [(float(r[1].rstrip(":")), float(r[3])) for r in strong_lines]
    compare_distribution(abl_pairs, strong_expected, "pointer abl column",
                         prob_tol=1e-8, value_tol=1e-5)
    compare_distribution(mass_pairs, strong_expected, "pointer bump masses",
                         prob_tol=1e-6, value_tol=1e-5)

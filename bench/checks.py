"""Checks of the pipeline's outputs, written apart from the program.

Nothing here calls back into ttnprep to decide whether an output is
right: isometries, CNOT pricing, the inverse-DFT matrix, tree shapes
and the sqrt-Gaussian target are recomputed from their definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ISOMETRY_TOL = 1e-8
DFT_TOL = 1e-12
TARGET_TOL = 1e-9
MIN_SIM_FIDELITY = 0.98
MAX_LEDGER_GAP = 1e-2
TARGET_SAMPLES = 256


@dataclass
class Outcome:
    """failed: the operation did not do its job (a wrong tree).
    problems: outputs that are wrong; any makes the run incorrect."""

    failed: bool = False
    problems: list = field(default_factory=list)


def isometry_defect(matrix: np.ndarray) -> float:
    """max |M^H M - I| over the entries."""
    g = matrix.conj().T @ matrix
    return float(np.max(np.abs(g - np.eye(g.shape[0]))))


def dft_matrix(n: int, m: int) -> np.ndarray:
    """The (2^n x 2^m) embedding from stored frequency s to grid point b:
    exp(2 pi i b k / 2^n) / sqrt(2^n), k = s for s < 2^m / 2, else s - 2^m."""
    N, M = 2 ** n, 2 ** m
    k = np.array([s if s < M // 2 else s - M for s in range(M)])
    b = np.arange(N)
    return np.exp(2j * np.pi * np.outer(b, k) / N) / math.sqrt(N)


def check_circuit(circ, record: dict, grid, mode: str) -> Outcome:
    """Placements, CNOT and QFT pricing, width and wire labels of one
    compiled circuit against its build record."""
    D, n, m = grid.dim, grid.qubits, grid.fourier_qubits
    problems = []
    cnots = 0
    qft = []
    for i, plc in enumerate(circ.placements):
        p, q = plc.in_qubits, len(plc.targets)
        if plc.matrix.shape != (2 ** q, 2 ** p):
            problems.append(f"placement {i}: shape {plc.matrix.shape} "
                            f"for {p} inputs and {q} outputs")
            continue
        defect = isometry_defect(plc.matrix)
        if defect > ISOMETRY_TOL:
            problems.append(f"placement {i}: not an isometry "
                            f"(|MhM - I| = {defect:.3e})")
        if plc.kind == "qft":
            qft.append(plc)
        else:
            cnots += 2 ** (p + q)
    for source, value in (("record", record["cnot_count"]),
                          ("cost", circ.cost.cnot_count)):
        if value != cnots:
            problems.append(f"{source} cnot_count {value} != {cnots}, the "
                            "sum of 2^(p+q) over non-QFT placements")
    if mode == "qft-gates":
        want = D * n * (n - 1) // 2
        if record["qft_cnots"] != want:
            problems.append(f"qft_cnots {record['qft_cnots']} != "
                            f"D n (n-1) / 2 = {want}")
        if len(qft) != D:
            problems.append(f"{len(qft)} inverse-DFT placements, want {D}")
        w = dft_matrix(n, m)
        for plc in qft:
            if (plc.in_qubits != m or plc.matrix.shape != w.shape
                    or not np.allclose(plc.matrix, w, rtol=0, atol=DFT_TOL)):
                problems.append(f"inverse-DFT placement on {plc.targets} "
                                "does not match the DFT formula")
    elif qft:
        problems.append(f"{len(qft)} inverse-DFT placements in {mode} mode")
    for source, value in (("record", record["qubits"]),
                          ("circuit", circ.qubits)):
        if value != D * n:
            problems.append(f"{source} qubits {value} != D n = {D * n}")
    want_labels = {(d, j) for d in range(D) for j in range(n)}
    if set(circ.labels) != want_labels or len(circ.labels) != D * n:
        problems.append("wire labels do not cover every (d, j) once")
    if record["depth"] != circ.cost.depth:
        problems.append(f"record depth {record['depth']} != circuit depth "
                        f"{circ.cost.depth}")
    return Outcome(problems=problems)


def leaf_splits(edges, num_leaves: int) -> set:
    """The nontrivial leaf bipartitions of a tree given as an edge list
    with leaves 0..num_leaves-1; each split is named by its side without
    leaf 0. Vertices of degree 2 and pendant internal vertices do not
    change the set."""
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    leaves = set(range(num_leaves))
    splits = set()
    for u, v in edges:
        side, stack = {v}, [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in side and y != u:
                    side.add(y)
                    stack.append(y)
        part = frozenset(side & leaves)
        if 0 in part:
            part = frozenset(leaves - part)
        if 1 < len(part) < num_leaves - 1:
            splits.add(part)
    return splits


def same_tree(found, generator, num_leaves: int) -> bool:
    """Whether two leaf-labeled trees have the same unrooted shape."""
    return leaf_splits(found, num_leaves) == leaf_splits(generator,
                                                         num_leaves)


def sqrt_gaussian(points: np.ndarray, grid, cov) -> np.ndarray:
    """Unnormalized sqrt of the normal density at integer grid points b,
    x = -a/2 + a b / 2^n per axis."""
    N = 2 ** grid.qubits
    x = -grid.box / 2.0 + grid.box * points / N
    quad = np.einsum("bi,bi->b", x, np.linalg.solve(cov.matrix, x.T).T)
    return np.exp(-quad / 4.0)


def check_verify(record: dict, target: np.ndarray, grid, cov) -> list:
    """Verification record, fidelity account and dense target of one
    verify_pipeline call."""
    problems = []
    if not record["ok"]:
        problems.append("verify record is not ok")
    sim_f, ceiling = record["simulated_fidelity"], record["fourier_fidelity"]
    if not MIN_SIM_FIDELITY <= sim_f <= ceiling + 1e-10:
        problems.append(f"simulated fidelity {sim_f:.6f} outside "
                        f"[{MIN_SIM_FIDELITY}, ceiling {ceiling:.6f}]")
    gap = abs(record["ledger_fidelity"] - sim_f / ceiling)
    if gap > MAX_LEDGER_GAP:
        problems.append(f"ledger gap {gap:.3e} > {MAX_LEDGER_GAP}")
    norm = float(np.linalg.norm(target))
    if abs(norm - 1.0) > TARGET_TOL:
        problems.append(f"exact_target norm {norm!r} != 1")
    # compare up to the normalization, pinned at the largest entry
    top = np.array(np.unravel_index(np.argmax(target), target.shape))
    rng = np.random.default_rng(0)
    pts = np.vstack([top, rng.integers(0, 2 ** grid.qubits,
                                       size=(TARGET_SAMPLES, grid.dim))])
    own = sqrt_gaussian(pts, grid, cov)
    got = target[tuple(pts.T)]
    scale = got[0] / own[0]
    err = float(np.max(np.abs(got - scale * own)) / abs(got[0]))
    if err > TARGET_TOL:
        problems.append(f"exact_target differs from the sqrt-Gaussian by "
                        f"{err:.3e} of its peak")
    return problems

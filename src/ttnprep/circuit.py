"""Circuit synthesis from canonical tree tensor networks.

A canonical network maps directly onto a state-preparation circuit: the
center tensor becomes a preparation placement acting on fresh qubits and
every other tensor an isometry placement consuming the qubits that carry
its parent bond.  Bonds are padded to powers of two, with missing
isometry columns filled by Gram-Schmidt completion, and a placement with
p input and q output qubits is priced at 2**(p+q) CNOTs.  Depth is the
largest root-to-leaf cost sum.

The inverse discrete Fourier transform that turns frequency amplitudes
into grid amplitudes enters in one of two ways: absorbed into the
network as a chain of copy/phase tensors and recompressed, or appended
to the coefficient circuit as one symbolic placement per dimension.
Placement matrices keep the network's dtype, so a real coefficient
network gives real placements and complex enters only with that stage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable

import numpy as np

from .errors import (MAX_DENSE_QUBITS, CapacityError, CircuitValidityError,
                     ParameterError, ShapeError)
from .fourier import inverse_dft_embedding_matrix
from .topology import walk
from .ttn import (DTYPES, Edge, TreeTensorNetwork, _common_dtype,
                  label_from_json, label_to_json)

ISOMETRY_TOL = 1e-10
TRUNC_TOL = 1e-12     # relative rank cut of every compression sweep


def _qubits_for(dim: int) -> int:
    # number of wires carrying an index of size dim, after padding
    return (dim - 1).bit_length()


# -- inverse-DFT network -----------------------------------------------------


@dataclass(frozen=True)
class QftTtn:
    """Inverse-DFT network for one dimension: a copy-tensor spine of bond
    dimension 2**m with one phase tensor per output qubit.

    Output qubit j carries the phases exp(2j*pi*k*l/2**(j+1)), l in {0, 1},
    of the wavenumber residue k mod 2**(j+1).  Contracted against a
    stored wavenumber index the network reproduces the columns of the
    inverse-DFT embedding matrix.
    """

    n: int
    m: int

    @property
    def copy_bond(self) -> int:
        return 1 << self.m

    def chain_tensors(self) -> list[np.ndarray]:
        """Tensors ready to graft onto a frequency leg, one per output
        qubit, emitted least-significant bit first.

        The spine bond after step t carries the wavenumber residue mod
        2**(n-t-1), so bond dimensions shrink from 2**m toward 1.
        """
        M = 1 << self.m
        # the first tensor is the largest: (M, 2, min(M, 2**(n-1))), dense
        first = M * 2 * min(M, 1 << (self.n - 1))
        if first > 1 << MAX_DENSE_QUBITS:
            raise CapacityError(
                f"QFT chain tensor of {first} entries (n={self.n}, "
                f"m={self.m}) exceeds the dense cap 2**{MAX_DENSE_QUBITS}")
        ks = np.arange(M)
        ks = np.where(ks < M // 2, ks, ks - M) % (1 << self.n)
        vals = ks
        tensors = []
        l = np.arange(2)[None, :]
        for t in range(self.n):
            j = self.n - t - 1          # output qubit of this step
            size = 1 << (j + 1)
            out_vals, out_pos = np.unique(vals % (size // 2),
                                          return_inverse=True)
            # phases of the (at most M) residues in use only
            k = (vals % size)[:, None]
            T = np.zeros((len(vals), 2, len(out_vals)), dtype=complex)
            T[np.arange(len(vals)), :, out_pos] = \
                np.exp(2j * np.pi * k * l / size) / np.sqrt(2)
            tensors.append(T)
            vals = out_vals
        tensors[-1] = tensors[-1][:, :, 0]
        return tensors

    def qubit_labels(self, dim_label: Hashable) -> list:
        # chain emission order is LSB first; qubit j carries weight 2**(n-1-j)
        return [(dim_label, j) for j in range(self.n - 1, -1, -1)]

    def matrix(self) -> np.ndarray:
        """Dense (2**n, 2**m) contraction: stored wavenumber -> grid bits."""
        ts = self.chain_tensors()
        acc = ts[0] if len(ts) > 1 else ts[0][:, :, None]
        for T in ts[1:-1]:
            acc = np.einsum("s...a,alb->s...lb", acc, T)
        if len(ts) > 1:
            acc = np.einsum("s...a,al->s...l", acc, ts[-1])
        else:
            acc = acc[:, :, 0]
        n = self.n
        # accumulated bit axes run LSB..MSB; flatten as a big-endian integer
        acc = acc.transpose([0] + list(range(n, 0, -1)))
        return acc.reshape(1 << self.m, 1 << n).T


def build_qft_ttn(n: int, m: int) -> QftTtn:
    if not 1 <= m <= n:
        raise ParameterError(f"need 1 <= m <= n, got m={m}, n={n}")
    return QftTtn(n, m)


def compose_and_compress(coeff_net: TreeTensorNetwork, qft: QftTtn,
                         chi: int) -> TreeTensorNetwork:
    """Graft one inverse-DFT chain per dimension and recompress.

    chi caps the cross-dimension coefficient bonds; the qubit-level sweep
    never caps below the frequency-leg dimension 2**m, so the inverse-DFT
    stage itself is limited only by the rank tolerance.  All truncation
    fidelities are appended to the returned network's ledger.
    """
    net = coeff_net.copy()
    M = qft.copy_bond
    for lab, e in net.phys_edges().items():
        if net.edge_dim(e) != M:
            raise ShapeError(
                f"leg {lab!r} has dimension {net.edge_dim(e)}, expected {M}")
    root = min(net.tensors)
    net.canonicalize(root)
    net.truncate(chi=chi, tol=TRUNC_TOL)
    for d in sorted(net.labels()):
        net.attach_chain(d, qft.chain_tensors(), qft.qubit_labels(d))
    net.canonicalize(root)
    net.truncate(chi=max(chi, M), tol=TRUNC_TOL)
    return net


# -- frequency-leg splitting -------------------------------------------------


def qubitize(net: TreeTensorNetwork) -> TreeTensorNetwork:
    """Split every 2**m-dimensional physical leg into m qubit legs.

    Label d becomes labels (d, 0) .. (d, m-1), big-endian, on the same
    tensor; the network geometry and canonical center are unchanged.
    """
    work = net.copy()
    nxt = max(work.edges) + 1
    for lab, e in sorted(work.phys_edges().items()):
        u = work.edges[e].nodes[0]
        i = work.axes[u].index(e)
        M = work.tensors[u].shape[i]
        m = M.bit_length() - 1
        if M != (1 << m) or m < 1:
            raise ShapeError(f"leg {lab!r} dimension {M} is not a power of two")
        shape = work.tensors[u].shape
        work.tensors[u] = work.tensors[u].reshape(
            shape[:i] + (2,) * m + shape[i + 1:])
        del work.edges[e]
        ids = []
        for j in range(m):
            work.edges[nxt] = Edge((u,), (lab, j))
            ids.append(nxt)
            nxt += 1
        work.axes[u][i:i + 1] = ids
    work.validate()
    return work


# -- circuit data model ------------------------------------------------------


@dataclass(eq=False)
class Placement:
    """One isometry applied to `targets`: the first in_qubits wires hold
    the input index (big-endian), all targets hold the output index."""

    targets: tuple
    in_qubits: int
    matrix: np.ndarray
    kind: str = "isometry"          # "prep" | "isometry" | "qft"

    @property
    def out_qubits(self) -> int:
        return len(self.targets)

    @property
    def cnots(self) -> int:
        if self.kind == "qft":
            q = self.out_qubits
            return q * (q - 1) // 2
        return 1 << (self.in_qubits + self.out_qubits)

    def validate(self) -> None:
        p, q = self.in_qubits, self.out_qubits
        if len(set(self.targets)) != q:
            raise CircuitValidityError(f"duplicate targets {self.targets}")
        if not 0 <= p <= q:
            raise CircuitValidityError(f"invalid input count {p} of {q}")
        if self.matrix.shape != (1 << q, 1 << p):
            raise CircuitValidityError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{q} outputs, {p} inputs")
        g = self.matrix.conj().T @ self.matrix
        # written so that a NaN defect fails too
        if not np.max(np.abs(g - np.eye(1 << p))) <= ISOMETRY_TOL:
            raise CircuitValidityError(
                f"placement matrix on {self.targets} is not an isometry")


@dataclass
class CostReport:
    """CNOT and depth totals under the 2**(p+q) pricing rule.

    cnot_count covers preparation and isometry placements; inverse-DFT
    placements are priced separately in qft_cnots so comparisons can
    exclude the Fourier stage common to every method.
    """

    cnot_count: int
    depth: int
    qft_cnots: int = 0

    @property
    def total_cnots(self) -> int:
        return self.cnot_count + self.qft_cnots

    def to_dict(self) -> dict:
        return {"cnot_count": self.cnot_count, "depth": self.depth,
                "qft_cnots": self.qft_cnots}

    @classmethod
    def from_dict(cls, d: dict) -> "CostReport":
        return cls(d["cnot_count"], d["depth"], d.get("qft_cnots", 0))


@dataclass(eq=False)
class QuantumCircuit:
    qubits: int
    placements: list
    labels: tuple                   # labels[w] is carried by wire w at the end
    cost: CostReport

    def validate(self) -> None:
        for plc in self.placements:
            plc.validate()
            for t in plc.targets:
                if not 0 <= t < self.qubits:
                    raise CircuitValidityError(f"target {t} out of range")

    def to_dict(self) -> dict:
        """Each placement records its matrix's dtype (one of DTYPES): a
        float64 matrix as plain floats, a complex128 one as [re, im]
        pairs."""
        pls = []
        for plc in self.placements:
            dtype = _common_dtype([plc.matrix])
            flat = np.asarray(plc.matrix, dtype=dtype).ravel().view(float)
            if dtype == complex:
                flat = flat.reshape(-1, 2)
            pls.append({"targets": [int(t) for t in plc.targets],
                        "in_qubits": int(plc.in_qubits),
                        "kind": plc.kind, "dtype": dtype.name,
                        "matrix": flat.tolist()})
        return {"qubits": int(self.qubits),
                "labels": [label_to_json(l) for l in self.labels],
                "placements": pls,
                "metrics": self.cost.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "QuantumCircuit":
        """Inverse of to_dict. A placement without a dtype is read as
        complex128 pairs, the format of files written before the dtype
        was recorded."""
        pls = []
        for pd in d["placements"]:
            q = len(pd["targets"])
            p = pd["in_qubits"]
            dtype = pd.get("dtype", "complex128")
            if dtype not in DTYPES:
                raise ParameterError(
                    f"unknown placement dtype {dtype!r} on {pd['targets']}")
            mat = np.array(pd["matrix"], dtype=float).view(dtype)
            mat = mat.reshape(1 << q, 1 << p)
            pls.append(Placement(tuple(pd["targets"]), p, mat,
                                 pd.get("kind", "isometry")))
        labels = tuple(label_from_json(l) for l in d["labels"])
        return cls(d["qubits"], pls, labels,
                   CostReport.from_dict(d["metrics"]))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "QuantumCircuit":
        return cls.from_dict(json.loads(Path(path).read_text()))


# -- synthesis ---------------------------------------------------------------


def _complete_isometry(mat: np.ndarray, valid: int) -> np.ndarray:
    """Fill columns valid.. with an orthonormal completion of the first
    `valid` columns, which must already be orthonormal."""
    rows, cols = mat.shape
    if valid == cols:
        return mat
    if valid == 0:
        out = np.zeros((rows, cols), dtype=mat.dtype)
        out[:cols, :] = np.eye(cols)
        return out
    q_full = np.linalg.qr(mat[:, :valid], mode="complete")[0]
    out = mat.copy()
    out[:, valid:] = q_full[:, valid:cols]
    return out


def synthesize(net: TreeTensorNetwork) -> tuple[QuantumCircuit, CostReport]:
    """Emit the canonical network as an ordered list of placements.

    Wires are numbered so that wire w finally carries the w-th smallest
    physical label; the statevector of the simulated circuit then matches
    contract_to_vector on the same network.
    """
    work = net.copy()
    if work.center is None:
        work.canonicalize(min(work.tensors))
    work.normalize()
    for e, ed in work.edges.items():
        if ed.is_phys and work.edge_dim(e) != 2:
            raise ShapeError(
                f"physical leg {ed.label!r} has dimension "
                f"{work.edge_dim(e)}, expected a qubit")
    order = walk(work.center, work.neighbors)
    next_wire = 0
    bond_wires: dict[int, list[int]] = {}
    wire_label: dict[int, Hashable] = {}
    placements = []
    for u, _, pe in order:
        t = work.tensors[u]
        ax = work.axes[u]
        if pe is None:
            p = 0
            in_wires: list[int] = []
            t2 = t[None, ...]
            out_edges = list(ax)
        else:
            pi = ax.index(pe)
            p = _qubits_for(t.shape[pi])
            in_wires = bond_wires[pe]
            t2 = np.moveaxis(t, pi, 0)
            out_edges = ax[:pi] + ax[pi + 1:]
        groups = [(e2, d, _qubits_for(d))
                  for e2, d in zip(out_edges, t2.shape[1:])]
        q = sum(b for _, _, b in groups)
        if p > q:
            raise ShapeError(f"node {u}: bond wider than its outputs")
        targets = list(in_wires)
        while len(targets) < q:
            targets.append(next_wire)
            next_wire += 1
        pos = 0
        for e2, d, b in groups:
            ws = targets[pos:pos + b]
            pos += b
            if work.edges[e2].is_phys:
                wire_label[ws[0]] = work.edges[e2].label
            else:
                bond_wires[e2] = ws
        pad = np.zeros([1 << p] + [1 << b for _, _, b in groups],
                       dtype=t2.dtype)
        pad[tuple(slice(0, s) for s in t2.shape)] = t2
        mat = pad.reshape(1 << p, -1).T
        mat = _complete_isometry(mat, t2.shape[0])
        kind = "prep" if pe is None else "isometry"
        placements.append(Placement(tuple(targets), p, mat, kind))

    # deepest cost sum below each node, children first; the root's
    # parent key None ends up holding the circuit depth
    below: dict = {}
    for (u, parent, _), plc in zip(reversed(order), reversed(placements)):
        below[parent] = max(below.get(parent, 0),
                            plc.cnots + below.get(u, 0))

    if len(wire_label) != next_wire:
        raise ShapeError("wire bookkeeping lost a physical leg")
    circ = _label_ordered(placements, wire_label, below[None])
    return circ, circ.cost


def _label_ordered(placements: list, wire_label: dict,
                   depth: int) -> QuantumCircuit:
    """The circuit with its wires renumbered so that wire i carries the
    i-th smallest label, priced from its placements: qft placements in
    qft_cnots, every other one in cnot_count."""
    perm = {w: i for i, (_, w) in
            enumerate(sorted((lab, w) for w, lab in wire_label.items()))}
    placements = [Placement(tuple(perm[w] for w in plc.targets),
                            plc.in_qubits, plc.matrix, plc.kind)
                  for plc in placements]
    qft = sum(plc.cnots for plc in placements if plc.kind == "qft")
    cost = CostReport(sum(plc.cnots for plc in placements) - qft, depth, qft)
    circ = QuantumCircuit(len(perm), placements,
                          tuple(sorted(wire_label.values())), cost)
    circ.validate()
    return circ


def with_inverse_dft(circ: QuantumCircuit, n: int) -> QuantumCircuit:
    """Append one symbolic inverse-DFT placement per dimension.

    Wires labeled (d, 0..m-1) are consumed and n-m fresh wires appended;
    the placement is priced at n(n-1)/2 CNOTs and depth n, kept apart
    from the coefficient-circuit totals.
    """
    by_dim: dict[Hashable, dict[int, int]] = {}
    for w, lab in enumerate(circ.labels):
        if not (isinstance(lab, tuple) and len(lab) == 2):
            raise ShapeError(f"wire label {lab!r} is not (dimension, bit)")
        by_dim.setdefault(lab[0], {})[lab[1]] = w
    placements = list(circ.placements)
    wire_label = dict(enumerate(circ.labels))
    next_wire = circ.qubits
    dft: dict[int, np.ndarray] = {}   # one read-only matrix per bit count
    for d in sorted(by_dim):
        js = by_dim[d]
        m = len(js)
        if sorted(js) != list(range(m)):
            raise ShapeError(f"dimension {d!r} wires are not bits 0..{m - 1}")
        if m > n:
            raise ParameterError(f"dimension {d!r} already has {m} > n={n} bits")
        targets = [js[j] for j in range(m)]
        targets += list(range(next_wire, next_wire + n - m))
        next_wire += n - m
        if m not in dft:
            dft[m] = inverse_dft_embedding_matrix(n, m)
            dft[m].flags.writeable = False
        placements.append(Placement(tuple(targets), m, dft[m], kind="qft"))
        for j, w in enumerate(targets):
            wire_label[w] = (d, j)
    return _label_ordered(placements, wire_label, circ.cost.depth + n)


def fsl_baseline_cost(D: int, n: int, m: int) -> CostReport:
    """Brute-force reference: prepare all 2**(m*D) coefficient amplitudes
    in one placement, then one inverse DFT per dimension."""
    if min(D, n, m) < 1:
        raise ParameterError("D, n, m must be positive")
    prep = 1 << (m * D)
    qft = (m * D) * (m * D - 1) // 2
    return CostReport(prep, prep + n, qft_cnots=qft)

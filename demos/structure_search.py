"""Recovering a hidden correlation tree from entanglement alone.

Draws a random tree over the variables, correlates them by tree
distance, then hands the compiler a deliberately wrong starting shape
(a leaf-shuffled chain). The local reshaping sweep compares the three
pairings at each internal bond and keeps whichever minimizes the split
entropy. On tree-correlated data that greedy rule walks back to the
generating topology; the script prints every accepted move and checks
the final unrooted tree against the hidden one.

Usage: python3 demos/structure_search.py [--dim 6] [--seed 3]
"""

import argparse

import numpy as np

from ttnprep.fourier import FourierEvaluator, GridSpec
from ttnprep.gaussian import make_covariance
from ttnprep.sim import interpolate
from ttnprep.structopt import PAIRING_NAMES, optimize_structure
from ttnprep.topology import (TreeTopology, caterpillar_leaf_tree,
                              random_leaf_tree)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dim", type=int, default=6)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--chi", type=int, default=16)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    hidden = random_leaf_tree(args.dim, rng)
    perm = rng.permutation(args.dim)
    print(f"hidden tree edges: {sorted(hidden)}")

    cov = make_covariance("tree", args.dim, edges=hidden, sigma=3.0)
    grid = GridSpec(args.dim, 5, 16.0, 3)

    # start from a chain whose leaves are randomly permuted
    start = [(int(perm[u]) if u < args.dim else u,
              int(perm[v]) if v < args.dim else v)
             for u, v in caterpillar_leaf_tree(args.dim)]
    topo = TreeTopology.from_leaf_tree(start, args.dim, grid.M)
    net, tci_rec = interpolate(FourierEvaluator(grid, cov), topo,
                               chi_prime=32, sweeps=4, seed=args.seed)
    print("interpolated on shuffled chain: "
          f"relative residual {tci_rec['tci_residual']:.2e}")

    net, report = optimize_structure(net, chi=args.chi)
    for c in report["choices"]:
        if not c.accepted:
            continue
        ents = ", ".join(f"{e:.3f}" for e in c.entropies)
        print(f"  bond {c.edge}: entropies [{ents}] "
              f"-> pairing {PAIRING_NAMES[c.chosen]}")
    print(f"{report['accepted_total']} reconnections "
          f"over {len(report['sweeps'])} sweeps")

    got = net.topology().splits()
    want = TreeTopology.from_leaf_tree(hidden, args.dim, 1).splits()
    print("recovered tree matches hidden tree:", got == want)


if __name__ == "__main__":
    main()

"""End-to-end run: covariance in, verified circuit out.

Walks the full pipeline on one instance and prints each artifact as it
appears:

  1. analytic bond requirements per tree cut (no tensors built yet),
  2. cross interpolation of the truncated Fourier coefficients,
  3. composition with the inverse-DFT network and recompression,
  4. circuit synthesis with CNOT/depth pricing,
  5. exact statevector simulation against the target density.

The point of the printout is the last line: the a-priori ledger product
agrees with the simulated fidelity to within the reporting tolerance,
so at scale the certificate can stand in for the simulation.

Usage: python3 demos/compile_and_verify.py [--dim 3] [--chi 8]
"""

import argparse

from ttnprep.fourier import GridSpec
from ttnprep.gaussian import make_covariance, required_bond_profile
from ttnprep.sim import baseline_comparison, verify_pipeline
from ttnprep.topology import TreeTopology


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--m", type=int, default=4)
    ap.add_argument("--chi", type=int, default=8)
    ap.add_argument("--sigma-max", type=float, default=0.3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    cov = make_covariance("random", args.dim, sigma_max=args.sigma_max,
                          seed=args.seed)
    grid = GridSpec(args.dim, args.n, 16.0, args.m)
    print(f"covariance {args.dim}x{args.dim}, sigma_max {args.sigma_max}, "
          f"grid 2^{args.n} per axis, {2 ** args.m} modes per axis")

    topo = TreeTopology.mps(list(range(args.dim)), grid.M)
    profile = required_bond_profile(cov, topo, 1e-3)
    print("\nbond needed per chain cut at accuracy 1e-3:")
    for bond, r in sorted(profile.items()):
        print(f"  cut {bond}: {r}")

    rec = verify_pipeline(cov, grid, args.chi, "qft-gates", seed=args.seed)
    print(f"\ninterpolation: {rec['tci_evals']} coefficient entries computed, "
          f"residual {rec['tci_residual']:.2e}")
    print(f"circuit: {rec['qubits']} qubits, {rec['cnot_count']} prep CNOTs "
          f"+ {rec['qft_cnots']} QFT CNOTs, depth {rec['depth']}")

    base = baseline_comparison(rec)
    print(f"dense Fourier loader would use {base['baseline_cnots']} CNOTs "
          f"(ratio {base['cnot_ratio']:.3f})")

    print(f"\nledger fidelity    {rec['ledger_fidelity']:.10f}")
    print(f"simulated fidelity {rec['simulated_fidelity']:.10f} "
          f"(Fourier ceiling {rec['fourier_fidelity']:.10f})")
    print(f"|ledger - simulated/ceiling| = {rec['gap']:.2e} "
          f"-> {'OK' if rec['ok'] else 'MISMATCH'}")


if __name__ == "__main__":
    main()

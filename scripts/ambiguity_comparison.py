#!/usr/bin/env python3
"""Compare geometry-aware refinement against geometry-blind synchronisation.

Instances use near-duplicate feature prototype pairs plus outliers, so
feature-only pairwise matching confuses each prototype with its twin.  Both
methods consume the same pairwise matching votes: the spectral baseline
synchronises them from the vote spectrum alone, while the refinement runs the
power-iteration solver on the votes with the position kernel attached.  The
printed margin isolates what position context adds.
"""

import argparse
import sys

import numpy as np

from hippi.baselines import pairwise_lap_matchings, spectral_sync, vote_similarity
from hippi.kernels import KernelConfig, assert_psd, build_adjacency, build_similarity
from hippi.metrics import fscore
from hippi.solver import SolverConfig, WbarOperator, hippi_solve
from hippi.synth import twin_prototype_instance


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--k", type=int, default=16, help="objects per instance")
    ap.add_argument("--d-true", type=int, default=10, help="universe size (even)")
    ap.add_argument("--separation", type=float, default=0.8,
                    help="distance between twin prototypes")
    ap.add_argument("--noises", default="0.3,0.4,0.5",
                    help="comma list of feature noise levels")
    ap.add_argument("--outlier-fraction", type=float, default=0.3)
    ap.add_argument("--sigma", type=float, default=0.5, help="feature bandwidth")
    ap.add_argument("--mu", type=float, default=3.0, help="position bandwidth scale")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    kcfg = KernelConfig(sigma=args.sigma, mu=args.mu)
    scfg = SolverConfig(max_iters=200)
    for noise in (float(x) for x in args.noises.split(",") if x):
        spectral_scores, refined_scores = [], []
        for seed in range(args.seeds):
            p = twin_prototype_instance(
                args.k, args.d_true,
                separation=args.separation,
                feature_noise_sigma=noise,
                outlier_fraction=args.outlier_fraction,
                feature_dim=8,
                seed=seed,
            )
            w = build_similarity(p, kcfg)
            a = assert_psd(build_adjacency(p, kcfg)).adjacency
            d = max(p.sizes)
            votes = pairwise_lap_matchings(w)
            baseline = spectral_sync(votes, d)
            op = WbarOperator(vote_similarity(votes), a)
            refined, _ = hippi_solve(op, baseline, scfg)
            spectral_scores.append(fscore(baseline, p.ground_truth).fscore)
            refined_scores.append(fscore(refined, p.ground_truth).fscore)
        sp, hi = float(np.mean(spectral_scores)), float(np.mean(refined_scores))
        wins = sum(1 for x, y in zip(refined_scores, spectral_scores) if x > y)
        print(
            f"noise={noise:.2f}: spectral={sp:.4f} refined={hi:.4f} "
            f"margin={hi - sp:+.4f} wins={wins}/{args.seeds}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Sweep the spike-sampler kill experiment over market sizes and levels.

For each (n, c, eps) the critical market is robust at the deterministic
level 2n(n-1)(c-1)+1, yet the joint spike distribution with per-entry
expectation (1+eps)c changes a stable pair in every draw. The preserved
fraction column should be exactly 0 for every row; the control row uses
factors capped at c and should be exactly 1.

Usage: python scripts/spike_kill_experiment.py [--trials 2000] [--seed 1]
"""

import argparse

from matchrobust import (
    CriticalSpikeSampler,
    IidUniformFactorSampler,
    preservation_probability,
    sufficient_robustness_level,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    print("n,c,eps,sampler,level,robust_level,trials,preserved_fraction,seed")
    for n in (2, 3, 4):
        for c in (1.25, 1.5, 2.0):
            for eps in (0.1, 0.2):
                spike = CriticalSpikeSampler(n, c, eps)
                market = spike.market
                frac = preservation_probability(market, spike, args.trials, args.seed)
                print(f"{n},{c},{eps},spike,{spike.level:.6g},"
                      f"{sufficient_robustness_level(n, c):.6g},{args.trials},{frac:.6g},{args.seed}")
                control = IidUniformFactorSampler(n, level=c)
                frac = preservation_probability(market, control, args.trials, args.seed)
                print(f"{n},{c},{eps},bounded,{c:.6g},"
                      f"{sufficient_robustness_level(n, c):.6g},{args.trials},{frac:.6g},{args.seed}")


if __name__ == "__main__":
    main()

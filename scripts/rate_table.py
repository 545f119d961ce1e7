#!/usr/bin/env python3
"""Print a refinement table (mesh, successive diffs, observed order) for a preset."""
import argparse

import numpy as np

from evolveq.convergence import check_ladder, refine, solve_ladder
from evolveq.presets import LOAD_NAMES, get_preset, preset_names


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("preset", choices=preset_names())
    parser.add_argument("--ladder", default="8,16,32,64,128,256",
                        help="comma-separated nested slab counts")
    parser.add_argument("--load", choices=LOAD_NAMES,
                        help="load preset (default: the preset's own)")
    args = parser.parse_args()

    try:
        counts = check_ladder(args.ladder.split(","))
    except ValueError as exc:
        parser.error(f"--ladder: {exc}")
    preset = get_preset(args.preset, load=args.load)
    study = refine(solve_ladder(preset.problem, counts))

    print(f"{'n':>6} {'mesh':>12} {'diff_l2V':>12} {'diff_supH':>12} {'order':>7}")
    for i, n in enumerate(study.slab_counts):
        if i == 0:
            print(f"{n:>6} {study.meshes[i]:>12.4e} {'-':>12} {'-':>12} {'-':>7}")
            continue
        order = "-"
        if i >= 2 and study.diffs_l2V[i - 1] > 0 and study.diffs_l2V[i - 2] > 0:
            order = f"{np.log2(study.diffs_l2V[i - 2] / study.diffs_l2V[i - 1]):.2f}"
        print(f"{n:>6} {study.meshes[i]:>12.4e} {study.diffs_l2V[i - 1]:>12.4e} "
              f"{study.diffs_supH[i - 1]:>12.4e} {order:>7}")
    print(f"fitted rate (last three points): {study.rate:.3f}")


if __name__ == "__main__":
    main()

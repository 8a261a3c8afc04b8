#!/usr/bin/env python
"""Port study: the full configuration matrix over the whole suite.

Regenerates the evaluation's main figure (F1) and the headline
relative-performance table (F2) at the chosen scale, in one engine
pass that simulates the cells the two grids share once.  Pass
``--scale tiny`` for a fast run or ``--scale full`` for longer traces.
"""

import argparse

from repro.experiments import run_all


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("tiny", "small", "full"),
                        default="small")
    args = parser.parse_args()
    tables = run_all(args.scale, ids=("F1", "F2"))
    print(tables["F1"].render())
    print()
    headline = tables["F2"]
    print(headline.render())
    print(f"\nheadline: all-techniques single port reaches "
          f"{100 * headline.cell('MEAN (all)', 'tech/2P+SC'):.0f}% of the "
          f"dual-ported cache (paper: 91%); the plain single port only "
          f"reaches {100 * headline.cell('MEAN (all)', '1P/2P+SC'):.0f}%")


if __name__ == "__main__":
    main()

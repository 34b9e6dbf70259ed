"""Run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fig12-memory --seed 1 --seconds 15 --trace 0

The program is imported from the checkout's ``src/`` directory, so the
benchmark measures the code beside it.  It exits with status 2, printing
no result, when the checkout holds no program to measure.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    """Check the checkout, then hand over to :func:`perfbench.bench.main`."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())

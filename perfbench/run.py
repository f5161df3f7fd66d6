"""Entry point: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. BLAS and OpenMP are pinned to one thread
before numpy loads; the program is imported from the checkout's src/.
"""

import os
import sys

if __name__ == "__main__":
    # The checkout root replaces this script's directory on the path.
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    from perfbench import THREAD_ENV

    os.environ.update(THREAD_ENV)
    from perfbench.bench import main

    sys.exit(main(sys.argv[1:]))

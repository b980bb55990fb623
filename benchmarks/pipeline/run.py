"""Entry point by file path: ``python3 benchmarks/pipeline/run.py [options]``.

Same options as ``python3 -m benchmarks.pipeline``; see harness.py.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    # Import the package from the repository root, not this directory.
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.pipeline.harness import main

    sys.exit(main())

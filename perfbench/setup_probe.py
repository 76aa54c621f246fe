"""Set a run up in a fresh process and report when it is ready.

    python3 perfbench/setup_probe.py CONFIG_JSON SCHEME

Imports the CLI, validates the config into a ``RunConfig`` and builds its
``ProblemSpec`` - everything a run does before it simulates - then prints
one JSON line of the versions and BLAS thread pins it ran with.  The
parent times the process from its start to that line.
"""

import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from parabolica import cli, model  # noqa: E402

BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(config_path: str, scheme: str) -> None:
    with open(config_path, encoding="utf-8") as fh:
        config = cli.RunConfig.from_dict(json.load(fh), scheme=scheme)
    if isinstance(config.problem, str):
        model.catalog_get(config.problem)
    else:
        model.problem_from_dict(dict(config.problem))
    import numpy
    import scipy

    facts = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_pins": {k: os.environ.get(k) for k in BLAS_PINS},
    }
    print(json.dumps(facts), flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])

"""One etale_kit CLI request under the tracer, for the traced cli_docs run.

    python3 perfbench/cli_child.py OUT.json [CLI ARGS...]

runs what `python -m etale_kit.cli [CLI ARGS...]` runs, with the same exit
code, and writes the tracer's aggregates to OUT.json together with the time
taken to import `etale_kit.cli` and whether that import loaded numpy.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter_ns()
from etale_kit import cli  # noqa: E402

import_ns = time.perf_counter_ns() - start
numpy_loaded = "numpy" in sys.modules

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    agg = tracer.aggregates()
    agg["counts"]["cli.import_ns"] = import_ns
    agg["counts"]["cli.numpy_loaded"] = int(numpy_loaded)
    Path(out).write_text(json.dumps(agg))
    return code


if __name__ == "__main__":
    sys.exit(main())

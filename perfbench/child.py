"""One benchmark process: import the fermibose CLI and run it once.

    python3 perfbench/child.py RESULT_JSON [--trace] [-- CLI_ARGS...]

Writes RESULT_JSON with the CLOCK_MONOTONIC time at which fermibose.cli
finished importing (the parent subtracts its spawn time to get setup_s),
the library versions and, with --trace, the recorded spans, counters and
cache statistics.  Without CLI arguments it only imports: a set-up
sample.  The exit code is the CLI's.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    result_path, rest = argv[0], argv[1:]
    trace = rest[:1] == ["--trace"]
    cli_args = rest[rest.index("--") + 1 :] if "--" in rest else []
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from fermibose import cli

    result = {"ready": time.monotonic()}
    import numpy
    import scipy

    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    code = 0
    try:
        if trace:
            import tracer

            rec = tracer.Recorder()
            tracer.install(rec)
            code = cli.main(cli_args)
            result.update(
                spans=rec.spans, counts=rec.counts, caches=tracer.cache_counts(rec)
            )
        elif cli_args:
            code = cli.main(cli_args)
    finally:
        with open(result_path, "w") as fh:
            json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

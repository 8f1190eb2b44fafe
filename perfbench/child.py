"""One benchmark client request: a fresh interpreter running ``ultragrid.cli``.

Usage::

    python child.py RESULT_JSON RUN_ID TRACE -- CLI_ARGS...
    python child.py RESULT_JSON RUN_ID setup

It does what ``python -m ultragrid.cli CLI_ARGS`` does, and writes to
RESULT_JSON the wall-clock time at which ``ultragrid.cli`` finished
importing (the parent subtracts its spawn time to get set-up time), the
wall time of the ``cli.main`` call, the exit code, the peak resident set
size and, with TRACE=1, the recorded spans.  With ``setup`` it only imports
``ultragrid.cli`` and records the import time.  The program's own stdout and
stderr pass through untouched.
"""

import json
import resource
import sys
import time

result_path, run_id, mode = sys.argv[1:4]

import ultragrid.cli as cli  # noqa: E402  (timed: set-up ends here)

imported_at = time.time()
record = {"imported_at": imported_at}

if mode != "setup":
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = None
    if mode == "1":
        import tracing

        tracer = tracing.Tracer(int(run_id))
        tracer.install()
    t0 = time.perf_counter()
    if tracer is None:
        code = cli.main(argv)
    else:
        code = tracer.wrap("cli.main", cli.main)(argv)
    record["run_s"] = time.perf_counter() - t0
    record["exit"] = code
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["spans"] = tracer.spans

with open(result_path, "w", encoding="utf-8") as fh:
    json.dump(record, fh)

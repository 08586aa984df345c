"""Layer probes for the solve daemon, loaded with ``serve --preload``.

``python -m repro serve ... --preload perfbench.tracehook`` imports this
module before the service starts: importing it is the whole point, so
it installs the probes at import time (unlike the rest of the
benchmark).  When the daemon exits after a drain, the spans and
counters are written as JSON to the path in ``PERFBENCH_TRACE_OUT``.
"""

import atexit
import json
import os

from perfbench.spans import Probes, Tracer

_OUT = os.environ["PERFBENCH_TRACE_OUT"]
_TRACER = Tracer()
_PROBES = Probes(_TRACER).install(scalar_calls=False)


def _dump() -> None:
    _PROBES.restore()
    with open(_OUT, "w", encoding="utf-8") as fh:
        json.dump(_TRACER.export(), fh)


atexit.register(_dump)

"""Child-process helper for the benchmark; not meant to be run by hand.

    probe.py setup <workload>          time import + one warm-up call
    probe.py cli <span file> <args>    run one traced `qhj` CLI request

In `setup` mode the process prints {"setup_s": seconds} as JSON.  In `cli`
mode it exits with the CLI's exit code and writes the request's spans to
the span file.  Both expect the working tree's src/ on PYTHONPATH.
"""

import json
import sys
import time


def main(argv):
    if argv[0] == "setup":
        from workloads import WORKLOADS
        t0 = time.perf_counter()
        WORKLOADS[argv[1]].probe_setup()
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    if argv[0] == "cli":
        from tracer import Tracer, span_records
        from qhj import cli
        tracer = Tracer()
        tracer.install()
        try:
            return cli.main(argv[2:])  # the wrapper installed above
        finally:
            with open(argv[1], "w", encoding="utf-8") as fh:
                json.dump(span_records(tracer.spans), fh)
    raise SystemExit("unknown probe mode %r" % argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Cold start of a workload: import eqconn in a fresh interpreter and run
the workload's smallest job once.

    python3 setup_job.py normalize OBJECT.json
    python3 setup_job.py tensor X.json Y.json

The arguments are the job's command line.  eqconn and ``tests/util.py``
must be importable (the benchmark puts ``src`` and ``tests`` on
PYTHONPATH).
"""

import json
import sys

import workloads as wl
from eqconn import serialize


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv):
    command, paths = argv[0], argv[1:]
    if command == "normalize":
        job = wl.normalize_job(None, serialize.decode_object(load(paths[0])), None)
    elif command == "tensor":
        x, y = (serialize.decode_normal_form(load(p)) for p in paths)
        job = wl.tensor_job(x, y, "xy", None)
    else:
        raise SystemExit("unknown set-up job %r" % command)
    job.run()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run the ``smtl`` command line under the tracer and save its spans.

    python3 perfbench/tracecli.py SPANS.json fit --data train.csv ...

Behaves like ``python3 -m smtl fit --data train.csv ...`` (same arguments,
output and exit code) and writes the spans it recorded to ``SPANS.json``.
"""

import json
import sys

import smtl.cli
from tracer import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer:
        code = tracer.wrap(smtl.cli.main, "cli.main")(argv)
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

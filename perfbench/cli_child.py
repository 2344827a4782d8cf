"""Traced stand-in for ``python -m qbg``, used by the cli-small traced run.

    python3 perfbench/cli_child.py <spans.json> <subcommand> [options...]

Records ``import qbg`` as an ``import.qbg`` span, runs ``qbg.cli.main`` with
the span wrappers installed, writes the spans as JSON and exits with the
CLI's status.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import spans  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    recorder.op = 0
    with recorder.span("import.qbg"):
        import qbg.cli
    recorder.install()
    status = qbg.cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.spans, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())

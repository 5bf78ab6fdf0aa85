"""Run the radgas CLI in this process with every layer boundary traced.

Usage: python3 perfbench/traced_main.py SPANS.npz <radgas arguments>

The spans are written to SPANS.npz when the command returns; the exit code
is the command's.
"""

import sys

import tracer


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    spans = tracer.Tracer()
    tracer.install(spans)
    import radgas.cli

    try:
        return radgas.cli.main(cli_args)
    finally:
        spans.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

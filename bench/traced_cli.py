"""Run the mbsr command line with layer spans on, for the traced benchmark run.

Usage: python3 bench/traced_cli.py SPANS.json <mbsr arguments...>

Wraps the layer calls (see spans.LAYER_CALLS), runs `mbsr.cli.main` on the
remaining arguments, writes the spans and counts to SPANS.json and exits
with the command's own exit code.
"""

import sys

from spans import Tracer, instrument, write_child


def main() -> int:
    tracer = Tracer()
    instrument(tracer)
    import mbsr.cli
    try:
        return mbsr.cli.main(sys.argv[2:])
    finally:
        write_child(tracer, sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())

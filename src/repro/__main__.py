"""``python -m repro`` entry point: one BLAS thread, then the CLI.

The pin comes before ``repro.cli`` (and with it numpy) loads, so the
artifacts a command writes do not depend on the host's core count.
"""

import sys

from repro.blas import pin_threads


def main() -> int:
    pin_threads()
    from repro.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())

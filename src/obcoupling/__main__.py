"""Run the command line interface: ``python -m obcoupling <subcommand> ...``."""

import sys

from obcoupling.cli import main

if __name__ == "__main__":
    sys.exit(main())

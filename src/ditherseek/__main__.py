"""``python -m ditherseek``: the command-line front end, :func:`ditherseek.cli.main`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m heckelab``: the command line interface of :mod:`heckelab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

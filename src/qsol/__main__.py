"""`python -m qsol`: the qsol command (see qsol.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

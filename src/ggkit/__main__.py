"""``python -m ggkit ...``: the command-line front end of ``ggkit.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

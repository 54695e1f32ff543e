"""`python -m destride`: the command line, as the `destride` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

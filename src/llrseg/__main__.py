"""`python -m llrseg`: the same commands as the `llrseg` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

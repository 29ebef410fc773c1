"""`python -m dyadlab`: the dyadlab command line, as installed by pip."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

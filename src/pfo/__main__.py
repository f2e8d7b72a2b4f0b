"""`python -m pfo`: the same command line as the `pfo` script."""

import sys

from .cli import main

sys.exit(main())

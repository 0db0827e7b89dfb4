"""`python -m synbench`: the synbench command line."""

import sys

from .cli import main

sys.exit(main())

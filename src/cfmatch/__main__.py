"""python -m cfmatch: the cfmatch command line."""

import sys

from .cli import main

sys.exit(main())

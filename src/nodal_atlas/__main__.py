"""Command-line entry point for ``python -m nodal_atlas``; the same CLI as
the installed ``nodal-atlas`` script."""

import sys

from .cli import main

sys.exit(main())

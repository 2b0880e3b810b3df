"""``python -m repro`` — quick figure regeneration CLI."""

import sys

from repro.cli import main

sys.exit(main(sys.argv[1:]))

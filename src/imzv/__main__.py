"""Run the command-line interface: python -m imzv product xy xy."""

import sys

from .cli import main

sys.exit(main())

"""Run the command line as ``python -m qoracle``."""
from .cli import main

raise SystemExit(main())

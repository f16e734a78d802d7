"""``python -m minaction``: the command-line front end.

From a source checkout, without installing:
``PYTHONPATH=src python -m minaction study --config run.json``.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m nltslab``: the ``nltslab`` command without an installed script."""

import sys

from .cli import main

sys.exit(main())

"""``python -m benchmarks.ledger run|compare ...``."""

import sys

from benchmarks.ledger.cli import main

sys.exit(main())

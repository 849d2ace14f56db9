"""``python -m pqbaskakov``: the same command line as the ``pqbaskakov`` script."""

from .cli import main

raise SystemExit(main())

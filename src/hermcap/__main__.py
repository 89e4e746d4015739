"""``python -m hermcap``: the command-line interface of ``hermcap.cli``."""

from .cli import main

if __name__ == "__main__":  # not when a spawned worker re-imports the main module
    raise SystemExit(main())

"""``python -m nakayama``: the command line of nakayama.cli."""
from .cli import main
if __name__ == "__main__":
    raise SystemExit(main())

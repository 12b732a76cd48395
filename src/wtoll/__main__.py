"""``python -m wtoll``: the same command line as the ``wtoll`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()

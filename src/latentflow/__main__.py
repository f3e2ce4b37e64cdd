"""``python -m latentflow``: the same command line as the ``latentflow`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()

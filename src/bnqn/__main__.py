"""``python -m bnqn``: the ``bnqn`` command line."""

from .cli import main

main()

"""The `xformlens` process, as `python -m xformlens` and the console script start it."""
import gc

# A run frees its data by reference counting, so the cyclic collector is off before the
# commands load, and `run` freezes the heap, which the exit collections then pass over.
# `cli.main` called from Python leaves the collector as it is.
gc.disable()
from .cli import main  # noqa: E402


def run() -> None:
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()

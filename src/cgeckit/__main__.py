"""`python -m cgeckit`: the same command line as the `cgeckit` script."""

from cgeckit.cli import main

if __name__ == "__main__":
    main()

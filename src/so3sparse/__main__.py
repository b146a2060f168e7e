"""`python -m so3sparse ...` runs the `so3sparse` command line."""

from so3sparse.cli import main

if __name__ == "__main__":
    main()

"""Allow `python -m fedceo`; also the console script's entry point."""

import sys


def main() -> int:
    """Run the command line.  An interrupt while it loads (NumPy's import
    takes a moment) ends like one during a command: exit 130 with one line
    on stderr, not a traceback."""
    try:
        from .cli import main as cli_main
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())

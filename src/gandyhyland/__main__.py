"""Run the command line interface: python -m gandyhyland CMD [flags]."""

from .cli.main import cli_entry

if __name__ == "__main__":
    cli_entry()

"""Command line layer: expression DSL, fixtures, checks, driver."""

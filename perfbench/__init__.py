"""The repository benchmark; ``perfbench/run.py`` is its entry point."""

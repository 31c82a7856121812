"""Braid-group arithmetic, key-agreement protocol simulators, and
conjugacy-extractor attack pipelines."""
